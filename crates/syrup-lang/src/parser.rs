//! Recursive-descent parser for the policy language.

use crate::ast::{
    BinOp, Expr, ExprKind, Function, GlobalDecl, LValue, MapDecl, MapDeclKind, Stmt, StructDef,
    Type, UnOp, Unit,
};
use crate::lexer::{Tok, Token};
use crate::LangError;

/// The deepest nesting a policy may have. Each statement body, `(`,
/// prefix operator, cast, call, `->` and binary operator on the path
/// from a function-level statement to a leaf is one level, so a chain
/// `1+1+…+1` of N terms is N − 1 levels deep; a type takes at most this
/// many `*`s. The parser, code generation, the reference interpreter and
/// dropping the tree recurse once per level. At this depth every shape
/// compiles and interprets on a 2 MiB thread in a debug build (`(`, the
/// costliest level, overflows there past about 235). The deepest source
/// in `syrup-policies` is 5 levels (`sita`); `syrup-fuzz`'s `langgen`
/// wrote at most 11 in 200 000 sources.
pub const MAX_DEPTH: usize = 128;

/// Parses a token stream into a [`Unit`].
pub fn parse(tokens: Vec<Token>) -> Result<Unit, LangError> {
    Parser {
        tokens,
        pos: 0,
        nesting: 0,
    }
    .unit()
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Levels entered above the token being parsed.
    nesting: usize,
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.tokens[self.pos].kind
    }

    fn peek2(&self) -> &Tok {
        self.tokens
            .get(self.pos + 1)
            .map(|t| &t.kind)
            .unwrap_or(&Tok::Eof)
    }

    fn line(&self) -> usize {
        self.tokens[self.pos].line
    }

    fn bump(&mut self) -> Tok {
        let t = self.tokens[self.pos].kind.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn too_deep(&self) -> LangError {
        LangError::new(
            self.line(),
            format!("nesting deeper than {MAX_DEPTH} levels"),
        )
    }

    /// Runs `parse` one level deeper, refusing to go past [`MAX_DEPTH`].
    fn nested<T>(
        &mut self,
        parse: impl FnOnce(&mut Self) -> Result<T, LangError>,
    ) -> Result<T, LangError> {
        if self.nesting == MAX_DEPTH {
            return Err(self.too_deep());
        }
        self.nesting += 1;
        let parsed = parse(self);
        self.nesting -= 1;
        parsed
    }

    /// An expression node, one level above its deepest operand.
    fn node(&self, line: usize, kind: ExprKind) -> Result<Expr, LangError> {
        let below = match &kind {
            ExprKind::Deref(e)
            | ExprKind::Member(e, _)
            | ExprKind::Cast(_, e)
            | ExprKind::Unary(_, e) => e.depth + 1,
            ExprKind::Binary(_, l, r) => l.depth.max(r.depth) + 1,
            ExprKind::Call(_, args) => args.iter().map(|a| a.depth + 1).max().unwrap_or(1),
            ExprKind::Int(_)
            | ExprKind::Ident(_)
            | ExprKind::AddrOf(_)
            | ExprKind::SizeOf(_)
            | ExprKind::SizeOfStruct(_) => 0,
        };
        if self.nesting + below > MAX_DEPTH {
            return Err(self.too_deep());
        }
        Ok(Expr {
            line,
            depth: below,
            kind,
        })
    }

    fn expect(&mut self, want: Tok, what: &str) -> Result<(), LangError> {
        if *self.peek() == want {
            self.bump();
            Ok(())
        } else {
            Err(LangError::new(
                self.line(),
                format!("expected {what}, found {:?}", self.peek()),
            ))
        }
    }

    fn expect_ident(&mut self, what: &str) -> Result<String, LangError> {
        match self.bump() {
            Tok::Ident(s) => Ok(s),
            other => Err(LangError::new(
                self.line(),
                format!("expected {what}, found {other:?}"),
            )),
        }
    }

    fn is_type_start(&self) -> bool {
        match self.peek() {
            Tok::Ident(s) => matches!(
                s.as_str(),
                "uint8_t" | "uint16_t" | "uint32_t" | "uint64_t" | "int" | "void" | "struct"
            ),
            _ => false,
        }
    }

    /// Parses a type: base keyword plus trailing `*`s.
    fn parse_type(&mut self) -> Result<Type, LangError> {
        let line = self.line();
        let base = match self.bump() {
            Tok::Ident(s) => s,
            other => {
                return Err(LangError::new(
                    line,
                    format!("expected type, found {other:?}"),
                ))
            }
        };
        let ty = match base.as_str() {
            "uint8_t" => Type::U8,
            "uint16_t" => Type::U16,
            "uint32_t" | "int" => Type::U32,
            "uint64_t" => Type::U64,
            "void" => {
                // `void` must be a pointer.
                self.expect(Tok::Star, "`*` after void")?;
                return self.pointers(Type::VoidPtr);
            }
            "struct" => {
                let name = self.expect_ident("struct name")?;
                // A struct type in expression position must be a pointer.
                // Tolerate the paper's `struct *udphdr` spelling as well as
                // the standard `struct udphdr *`.
                if *self.peek() == Tok::Star {
                    self.bump();
                }
                return Ok(Type::StructPtr(name));
            }
            other => {
                return Err(LangError::new(line, format!("unknown type `{other}`")));
            }
        };
        self.pointers(ty)
    }

    /// `ty` behind each `*` that follows, at most [`MAX_DEPTH`] of them.
    fn pointers(&mut self, mut ty: Type) -> Result<Type, LangError> {
        for _ in 0..=MAX_DEPTH {
            if *self.peek() != Tok::Star {
                return Ok(ty);
            }
            self.bump();
            ty = Type::Ptr(Box::new(ty));
        }
        Err(self.too_deep())
    }

    fn unit(&mut self) -> Result<Unit, LangError> {
        let mut unit = Unit::default();
        loop {
            match self.peek().clone() {
                Tok::Eof => break,
                Tok::Ident(word) if word == "struct" && self.struct_is_definition() => {
                    unit.structs.push(self.struct_def()?);
                }
                Tok::Ident(word) if word == "SYRUP_MAP" => {
                    unit.maps.push(self.map_decl()?);
                }
                _ if self.is_type_start() => {
                    // Either a global or the function.
                    let start = self.pos;
                    let _ty = self.parse_type()?;
                    let name = self.expect_ident("declaration name")?;
                    if *self.peek() == Tok::LParen {
                        self.pos = start;
                        let f = self.function()?;
                        if unit.function.is_some() {
                            return Err(LangError::new(
                                self.line(),
                                "only one function (schedule) is allowed",
                            ));
                        }
                        unit.function = Some(f);
                    } else {
                        self.pos = start;
                        unit.globals.push(self.global_decl(name)?);
                    }
                }
                other => {
                    return Err(LangError::new(
                        self.line(),
                        format!("unexpected top-level token {other:?}"),
                    ));
                }
            }
        }
        Ok(unit)
    }

    /// Distinguishes `struct x { ... };` (definition) from `struct x *p`
    /// used as a type at the head of a global declaration.
    fn struct_is_definition(&self) -> bool {
        matches!(self.peek2(), Tok::Ident(_))
            && matches!(
                self.tokens.get(self.pos + 2).map(|t| &t.kind),
                Some(Tok::LBrace)
            )
    }

    fn struct_def(&mut self) -> Result<StructDef, LangError> {
        self.bump(); // struct
        let name = self.expect_ident("struct name")?;
        self.expect(Tok::LBrace, "`{`")?;
        let mut fields = Vec::new();
        while *self.peek() != Tok::RBrace {
            let ty = self.parse_type()?;
            let fname = self.expect_ident("field name")?;
            self.expect(Tok::Semi, "`;`")?;
            fields.push((fname, ty));
        }
        self.expect(Tok::RBrace, "`}`")?;
        self.expect(Tok::Semi, "`;` after struct")?;
        Ok(StructDef { name, fields })
    }

    fn map_decl(&mut self) -> Result<MapDecl, LangError> {
        let line = self.line();
        self.bump(); // SYRUP_MAP
        self.expect(Tok::LParen, "`(`")?;
        let name = self.expect_ident("map name")?;
        self.expect(Tok::Comma, "`,`")?;
        let kind_name = self.expect_ident("map kind (ARRAY or HASH)")?;
        let kind = match kind_name.as_str() {
            "ARRAY" => MapDeclKind::Array,
            "HASH" => MapDeclKind::Hash,
            other => {
                return Err(LangError::new(line, format!("unknown map kind `{other}`")));
            }
        };
        self.expect(Tok::Comma, "`,`")?;
        let max_entries = match self.bump() {
            Tok::Int(n) if n > 0 => n,
            _ => return Err(LangError::new(line, "map size must be a positive integer")),
        };
        self.expect(Tok::RParen, "`)`")?;
        self.expect(Tok::Semi, "`;`")?;
        Ok(MapDecl {
            name,
            kind,
            max_entries,
        })
    }

    fn global_decl(&mut self, _name_hint: String) -> Result<GlobalDecl, LangError> {
        let line = self.line();
        let ty = self.parse_type()?;
        if ty.is_ptr() {
            return Err(LangError::new(line, "global pointers are not supported"));
        }
        let name = self.expect_ident("global name")?;
        let init = if *self.peek() == Tok::Assign {
            self.bump();
            let neg = if *self.peek() == Tok::Minus {
                self.bump();
                true
            } else {
                false
            };
            match self.bump() {
                Tok::Int(n) => {
                    if neg {
                        -n
                    } else {
                        n
                    }
                }
                _ => {
                    return Err(LangError::new(
                        line,
                        "global initializer must be an integer constant",
                    ))
                }
            }
        } else {
            0
        };
        self.expect(Tok::Semi, "`;`")?;
        Ok(GlobalDecl { name, ty, init })
    }

    fn function(&mut self) -> Result<Function, LangError> {
        let _ret = self.parse_type()?;
        let name = self.expect_ident("function name")?;
        self.expect(Tok::LParen, "`(`")?;
        let mut params = Vec::new();
        if *self.peek() != Tok::RParen {
            loop {
                let _pty = self.parse_type()?;
                params.push(self.expect_ident("parameter name")?);
                if *self.peek() == Tok::Comma {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        self.expect(Tok::RParen, "`)`")?;
        let body = self.block()?;
        Ok(Function { name, params, body })
    }

    fn block(&mut self) -> Result<Vec<Stmt>, LangError> {
        self.expect(Tok::LBrace, "`{`")?;
        let mut stmts = Vec::new();
        while *self.peek() != Tok::RBrace {
            stmts.push(self.statement()?);
        }
        self.expect(Tok::RBrace, "`}`")?;
        Ok(stmts)
    }

    fn block_or_single(&mut self) -> Result<Vec<Stmt>, LangError> {
        if *self.peek() == Tok::LBrace {
            self.block()
        } else {
            Ok(vec![self.statement()?])
        }
    }

    fn statement(&mut self) -> Result<Stmt, LangError> {
        let line = self.line();
        match self.peek().clone() {
            Tok::Ident(w) if w == "return" => {
                self.bump();
                // Ranked form: `return (q, rank);`. Try it whenever the
                // value starts with `(`; backtrack to a plain expression
                // when no comma follows (e.g. `return (a) + b;`).
                if *self.peek() == Tok::LParen {
                    let save = self.pos;
                    self.bump();
                    match self.expr() {
                        Ok(value) if *self.peek() == Tok::Comma => {
                            self.bump();
                            let rank = self.expr()?;
                            self.expect(Tok::RParen, "`)`")?;
                            self.expect(Tok::Semi, "`;`")?;
                            return Ok(Stmt::Return {
                                line,
                                value,
                                rank: Some(rank),
                            });
                        }
                        _ => self.pos = save,
                    }
                }
                let value = self.expr()?;
                self.expect(Tok::Semi, "`;`")?;
                Ok(Stmt::Return {
                    line,
                    value,
                    rank: None,
                })
            }
            Tok::Ident(w) if w == "break" => {
                self.bump();
                self.expect(Tok::Semi, "`;`")?;
                Ok(Stmt::Break { line })
            }
            Tok::Ident(w) if w == "continue" => {
                self.bump();
                self.expect(Tok::Semi, "`;`")?;
                Ok(Stmt::Continue { line })
            }
            Tok::Ident(w) if w == "if" => self.if_stmt(),
            Tok::Ident(w) if w == "for" => self.for_stmt(),
            _ if self.is_type_start() && !self.looks_like_cast() => {
                let ty = self.parse_type()?;
                let name = self.expect_ident("variable name")?;
                let init = if *self.peek() == Tok::Assign {
                    self.bump();
                    Some(self.expr()?)
                } else {
                    None
                };
                self.expect(Tok::Semi, "`;`")?;
                Ok(Stmt::Decl {
                    line,
                    ty,
                    name,
                    init,
                })
            }
            _ => self.assign_or_expr_stmt(),
        }
    }

    /// At statement head, `(type)` casts can only appear inside
    /// expressions, so a bare type keyword here is always a declaration.
    fn looks_like_cast(&self) -> bool {
        false
    }

    fn if_stmt(&mut self) -> Result<Stmt, LangError> {
        let line = self.line();
        self.bump(); // if
        self.expect(Tok::LParen, "`(`")?;
        let cond = self.expr()?;
        self.expect(Tok::RParen, "`)`")?;
        let then_body = self.nested(Self::block_or_single)?;
        let else_body = if matches!(self.peek(), Tok::Ident(w) if w == "else") {
            self.bump();
            if matches!(self.peek(), Tok::Ident(w) if w == "if") {
                vec![self.nested(Self::if_stmt)?]
            } else {
                self.nested(Self::block_or_single)?
            }
        } else {
            Vec::new()
        };
        Ok(Stmt::If {
            line,
            cond,
            then_body,
            else_body,
        })
    }

    /// `for (int i = START; i < END; i++) body` — the only supported shape;
    /// loops are unrolled at compile time.
    fn for_stmt(&mut self) -> Result<Stmt, LangError> {
        let line = self.line();
        self.bump(); // for
        self.expect(Tok::LParen, "`(`")?;
        if self.is_type_start() {
            let _ty = self.parse_type()?;
        }
        let var = self.expect_ident("loop variable")?;
        self.expect(Tok::Assign, "`=`")?;
        let start = self.expr()?;
        self.expect(Tok::Semi, "`;`")?;
        let cond_var = self.expect_ident("loop variable in condition")?;
        if cond_var != var {
            return Err(LangError::new(
                line,
                "for-loop condition must test the loop variable",
            ));
        }
        self.expect(Tok::Lt, "`<` (only `i < N` conditions are supported)")?;
        let end = self.expr()?;
        self.expect(Tok::Semi, "`;`")?;
        let inc_var = self.expect_ident("loop variable in increment")?;
        if inc_var != var {
            return Err(LangError::new(line, "for-loop increment must be `var++`"));
        }
        self.expect(Tok::Incr, "`++`")?;
        self.expect(Tok::RParen, "`)`")?;
        let body = self.nested(Self::block_or_single)?;
        Ok(Stmt::For {
            line,
            var,
            start,
            end,
            body,
        })
    }

    fn assign_or_expr_stmt(&mut self) -> Result<Stmt, LangError> {
        let line = self.line();
        let first = self.expr()?;
        let stmt = match self.peek().clone() {
            Tok::Assign => {
                self.bump();
                let value = self.expr()?;
                Stmt::Assign {
                    line,
                    target: expr_to_lvalue(first, line)?,
                    value,
                }
            }
            Tok::PlusAssign | Tok::MinusAssign => {
                let op = if self.bump() == Tok::PlusAssign {
                    BinOp::Add
                } else {
                    BinOp::Sub
                };
                let rhs = self.expr()?;
                let value = self.node(
                    line,
                    ExprKind::Binary(op, Box::new(first.clone()), Box::new(rhs)),
                )?;
                Stmt::Assign {
                    line,
                    target: expr_to_lvalue(first, line)?,
                    value,
                }
            }
            Tok::Incr | Tok::Decr => {
                let op = if self.bump() == Tok::Incr {
                    BinOp::Add
                } else {
                    BinOp::Sub
                };
                let one = self.node(line, ExprKind::Int(1))?;
                let value = self.node(
                    line,
                    ExprKind::Binary(op, Box::new(first.clone()), Box::new(one)),
                )?;
                Stmt::Assign {
                    line,
                    target: expr_to_lvalue(first, line)?,
                    value,
                }
            }
            _ => Stmt::ExprStmt { line, expr: first },
        };
        self.expect(Tok::Semi, "`;`")?;
        Ok(stmt)
    }

    // --- expressions ---

    fn expr(&mut self) -> Result<Expr, LangError> {
        self.binary(0)
    }

    /// A chain of binary operators binding at least as tightly as `min`,
    /// left-associative (precedence climbing).
    fn binary(&mut self, min: u8) -> Result<Expr, LangError> {
        let mut lhs = self.unary()?;
        while let Some((op, prec)) = binary_op(self.peek()) {
            if prec < min {
                break;
            }
            let line = self.line();
            self.bump();
            let rhs = self.binary(prec + 1)?;
            lhs = self.node(line, ExprKind::Binary(op, Box::new(lhs), Box::new(rhs)))?;
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr, LangError> {
        let line = self.line();
        match self.peek().clone() {
            Tok::Bang => {
                self.bump();
                let e = self.nested(Self::unary)?;
                self.node(line, ExprKind::Unary(UnOp::Not, Box::new(e)))
            }
            Tok::Minus => {
                self.bump();
                let e = self.nested(Self::unary)?;
                self.node(line, ExprKind::Unary(UnOp::Neg, Box::new(e)))
            }
            Tok::Tilde => {
                self.bump();
                let e = self.nested(Self::unary)?;
                self.node(line, ExprKind::Unary(UnOp::BitNot, Box::new(e)))
            }
            Tok::Star => {
                self.bump();
                let e = self.nested(Self::unary)?;
                self.node(line, ExprKind::Deref(Box::new(e)))
            }
            Tok::Amp => {
                self.bump();
                let name = self.expect_ident("identifier after `&`")?;
                self.node(line, ExprKind::AddrOf(name))
            }
            Tok::LParen if self.cast_ahead() => {
                self.bump(); // (
                let ty = self.parse_type()?;
                self.expect(Tok::RParen, "`)` after cast type")?;
                let e = self.nested(Self::unary)?;
                self.node(line, ExprKind::Cast(ty, Box::new(e)))
            }
            _ => self.postfix(),
        }
    }

    /// Whether `(` starts a cast: the next token is a type keyword.
    fn cast_ahead(&self) -> bool {
        match self.peek2() {
            Tok::Ident(s) => matches!(
                s.as_str(),
                "uint8_t" | "uint16_t" | "uint32_t" | "uint64_t" | "int" | "void" | "struct"
            ),
            _ => false,
        }
    }

    fn postfix(&mut self) -> Result<Expr, LangError> {
        let mut e = self.primary()?;
        #[allow(clippy::while_let_loop)] // Future postfix forms extend this match.
        loop {
            match self.peek() {
                Tok::Arrow => {
                    let line = self.line();
                    self.bump();
                    let field = self.expect_ident("field name")?;
                    e = self.node(line, ExprKind::Member(Box::new(e), field))?;
                }
                _ => break,
            }
        }
        Ok(e)
    }

    fn primary(&mut self) -> Result<Expr, LangError> {
        let line = self.line();
        match self.bump() {
            Tok::Int(n) => self.node(line, ExprKind::Int(n)),
            Tok::LParen => {
                let mut e = self.nested(Self::expr)?;
                e.depth += 1;
                self.expect(Tok::RParen, "`)`")?;
                Ok(e)
            }
            Tok::Ident(name) if name == "sizeof" => {
                self.expect(Tok::LParen, "`(`")?;
                let kind = if matches!(self.peek(), Tok::Ident(w) if w == "struct") {
                    self.bump();
                    let sname = self.expect_ident("struct name")?;
                    ExprKind::SizeOfStruct(sname)
                } else {
                    let ty = self.parse_type()?;
                    ExprKind::SizeOf(ty)
                };
                self.expect(Tok::RParen, "`)`")?;
                self.node(line, kind)
            }
            Tok::Ident(name) => {
                if *self.peek() == Tok::LParen {
                    self.bump();
                    let mut args = Vec::new();
                    if *self.peek() != Tok::RParen {
                        loop {
                            args.push(self.nested(Self::expr)?);
                            if *self.peek() == Tok::Comma {
                                self.bump();
                            } else {
                                break;
                            }
                        }
                    }
                    self.expect(Tok::RParen, "`)`")?;
                    self.node(line, ExprKind::Call(name, args))
                } else {
                    self.node(line, ExprKind::Ident(name))
                }
            }
            other => Err(LangError::new(line, format!("unexpected token {other:?}"))),
        }
    }
}

/// The binary operator `tok` spells and its precedence, loosest first.
fn binary_op(tok: &Tok) -> Option<(BinOp, u8)> {
    Some(match tok {
        Tok::OrOr => (BinOp::LOr, 0),
        Tok::AndAnd => (BinOp::LAnd, 1),
        Tok::Pipe => (BinOp::Or, 2),
        Tok::Caret => (BinOp::Xor, 3),
        Tok::Amp => (BinOp::And, 4),
        Tok::EqEq => (BinOp::Eq, 5),
        Tok::Ne => (BinOp::Ne, 5),
        Tok::Lt => (BinOp::Lt, 6),
        Tok::Le => (BinOp::Le, 6),
        Tok::Gt => (BinOp::Gt, 6),
        Tok::Ge => (BinOp::Ge, 6),
        Tok::Shl => (BinOp::Shl, 7),
        Tok::Shr => (BinOp::Shr, 7),
        Tok::Plus => (BinOp::Add, 8),
        Tok::Minus => (BinOp::Sub, 8),
        Tok::Star => (BinOp::Mul, 9),
        Tok::Slash => (BinOp::Div, 9),
        Tok::Percent => (BinOp::Mod, 9),
        _ => return None,
    })
}

fn expr_to_lvalue(e: Expr, line: usize) -> Result<LValue, LangError> {
    match e.kind {
        ExprKind::Ident(name) => Ok(LValue::Var(name)),
        ExprKind::Deref(inner) => Ok(LValue::Deref(*inner)),
        ExprKind::Member(base, field) => Ok(LValue::Member(*base, field)),
        _ => Err(LangError::new(line, "invalid assignment target")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> Unit {
        parse(lex(src).unwrap()).unwrap()
    }

    #[test]
    fn parses_round_robin_policy() {
        let unit = parse_src(
            "uint32_t idx = 0;
             uint32_t schedule(void *pkt_start, void *pkt_end) {
                 idx++;
                 return idx % NUM_THREADS;
             }",
        );
        assert_eq!(unit.globals.len(), 1);
        assert_eq!(unit.globals[0].name, "idx");
        let f = unit.function.unwrap();
        assert_eq!(f.name, "schedule");
        assert_eq!(f.params, vec!["pkt_start", "pkt_end"]);
        assert_eq!(f.body.len(), 2);
    }

    #[test]
    fn parses_ranked_return() {
        let unit = parse_src(
            "uint32_t schedule(void *a, void *b) {
                 return (1 + 2, a - b);
             }",
        );
        let f = unit.function.unwrap();
        match &f.body[0] {
            Stmt::Return {
                rank: Some(rank),
                value,
                ..
            } => {
                assert!(matches!(value.kind, ExprKind::Binary(BinOp::Add, _, _)));
                assert!(matches!(rank.kind, ExprKind::Binary(BinOp::Sub, _, _)));
            }
            other => panic!("expected ranked return, got {other:?}"),
        }
    }

    #[test]
    fn parenthesized_return_is_not_ranked() {
        // `return (x);` and `return (x) + 1;` keep their classic meaning.
        let unit = parse_src(
            "uint32_t schedule(void *a, void *b) {
                 return (4) + 1;
             }",
        );
        let f = unit.function.unwrap();
        match &f.body[0] {
            Stmt::Return {
                rank: None, value, ..
            } => {
                assert!(matches!(value.kind, ExprKind::Binary(BinOp::Add, _, _)));
            }
            other => panic!("expected plain return, got {other:?}"),
        }
    }

    #[test]
    fn parses_struct_and_member_access() {
        let unit = parse_src(
            "struct app_hdr { uint32_t user_id; uint32_t pad; };
             uint32_t schedule(void *pkt_start, void *pkt_end) {
                 struct app_hdr *hdr = (struct app_hdr *)(pkt_start + 8);
                 return hdr->user_id;
             }",
        );
        assert_eq!(unit.structs.len(), 1);
        assert_eq!(unit.structs[0].fields.len(), 2);
        let f = unit.function.unwrap();
        assert!(matches!(f.body[0], Stmt::Decl { .. }));
    }

    #[test]
    fn parses_map_decl_and_for_loop() {
        let unit = parse_src(
            "SYRUP_MAP(scan_map, ARRAY, 64);
             uint32_t schedule(void *pkt_start, void *pkt_end) {
                 for (int i = 0; i < 6; i++) {
                     if (i == 3) break;
                 }
                 return 0;
             }",
        );
        assert_eq!(unit.maps.len(), 1);
        assert_eq!(unit.maps[0].kind, MapDeclKind::Array);
        let f = unit.function.unwrap();
        assert!(matches!(f.body[0], Stmt::For { .. }));
    }

    #[test]
    fn desugars_compound_assignment() {
        let unit =
            parse_src("uint32_t schedule(void *a, void *b) { uint32_t x = 1; x += 2; return x; }");
        let f = unit.function.unwrap();
        match &f.body[1] {
            Stmt::Assign { value, .. } => {
                assert!(matches!(value.kind, ExprKind::Binary(BinOp::Add, _, _)));
            }
            other => panic!("expected assign, got {other:?}"),
        }
    }

    #[test]
    fn parses_deref_assignment_and_addr_of() {
        let unit = parse_src(
            "uint32_t schedule(void *a, void *b) {
                 uint64_t *p = syr_map_lookup_elem(&m, &k);
                 *p = 7;
                 return 0;
             }",
        );
        let f = unit.function.unwrap();
        assert!(matches!(
            &f.body[1],
            Stmt::Assign {
                target: LValue::Deref(_),
                ..
            }
        ));
    }

    #[test]
    fn parses_paper_style_struct_pointer_cast() {
        // The paper writes `(struct *udphdr)`; we accept it.
        let unit = parse_src(
            "uint32_t schedule(void *a, void *b) {
                 uint64_t v = *(uint64_t *)(a + 8);
                 return v;
             }",
        );
        assert!(unit.function.is_some());
    }

    #[test]
    fn rejects_malformed_for() {
        let toks =
            lex("uint32_t schedule(void *a, void *b) { for (int i = 0; j < 6; i++) {} return 0; }")
                .unwrap();
        assert!(parse(toks).is_err());
    }

    #[test]
    fn rejects_two_functions() {
        let toks = lex("uint32_t schedule(void *a, void *b) { return 0; }
             uint32_t other(void *a, void *b) { return 1; }")
        .unwrap();
        assert!(parse(toks).is_err());
    }

    #[test]
    fn parses_logical_operators_with_precedence() {
        let unit = parse_src(
            "uint32_t schedule(void *a, void *b) {
                 if (1 < 2 && 3 == 3 || 0) { return 1; }
                 return 0;
             }",
        );
        let f = unit.function.unwrap();
        match &f.body[0] {
            Stmt::If { cond, .. } => {
                // `||` binds loosest.
                assert!(matches!(cond.kind, ExprKind::Binary(BinOp::LOr, _, _)));
            }
            other => panic!("expected if, got {other:?}"),
        }
    }

    #[test]
    fn parses_sizeof() {
        let unit = parse_src(
            "struct udphdr { uint16_t sport; uint16_t dport; uint16_t len; uint16_t check; };
             uint32_t schedule(void *a, void *b) {
                 return sizeof(struct udphdr) + sizeof(uint32_t);
             }",
        );
        assert!(unit.function.is_some());
    }
}
