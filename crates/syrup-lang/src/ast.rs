//! Abstract syntax for the policy language.

/// A scalar or pointer type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Type {
    /// 32-bit unsigned (`uint32_t`, `int` is treated as `uint32_t`).
    U32,
    /// 64-bit unsigned (`uint64_t`).
    U64,
    /// 8-bit unsigned.
    U8,
    /// 16-bit unsigned.
    U16,
    /// Untyped pointer (`void *`): byte-granular arithmetic.
    VoidPtr,
    /// Pointer to a scalar (`uint64_t *`), dereferenced at that width.
    Ptr(Box<Type>),
    /// Pointer to a declared struct, accessed with `->`.
    StructPtr(String),
}

impl Type {
    /// Size in bytes when stored in a packet/struct (pointers are 8).
    pub fn size(&self) -> u32 {
        match self {
            Type::U8 => 1,
            Type::U16 => 2,
            Type::U32 => 4,
            Type::U64 => 8,
            Type::VoidPtr | Type::Ptr(_) | Type::StructPtr(_) => 8,
        }
    }

    /// Whether this is any pointer type.
    pub fn is_ptr(&self) -> bool {
        matches!(self, Type::VoidPtr | Type::Ptr(_) | Type::StructPtr(_))
    }
}

/// A struct declaration: packed layout (no padding), matching on-the-wire
/// header structs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StructDef {
    /// Struct tag.
    pub name: String,
    /// Fields in declaration order.
    pub fields: Vec<(String, Type)>,
}

impl StructDef {
    /// Byte offset of `field`, or `None` if absent.
    pub fn offset_of(&self, field: &str) -> Option<(u32, &Type)> {
        let mut off = 0;
        for (name, ty) in &self.fields {
            if name == field {
                return Some((off, ty));
            }
            off += ty.size();
        }
        None
    }

    /// Total packed size in bytes.
    pub fn size(&self) -> u32 {
        self.fields.iter().map(|(_, t)| t.size()).sum()
    }
}

/// Map kinds nameable in `SYRUP_MAP` declarations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapDeclKind {
    /// `ARRAY`: u32 → u64, zero-initialized.
    Array,
    /// `HASH`: u32 → u64.
    Hash,
}

/// A `SYRUP_MAP(name, KIND, entries);` declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MapDecl {
    /// Map name referenced as `&name` in helper calls.
    pub name: String,
    /// Array or hash.
    pub kind: MapDeclKind,
    /// Capacity.
    pub max_entries: i64,
}

/// A global variable declaration (backed by the implicit globals map).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GlobalDecl {
    /// Variable name.
    pub name: String,
    /// Declared type (scalars only).
    pub ty: Type,
    /// Optional constant initializer (defaults to 0, like C statics).
    pub init: i64,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
    /// `&`
    And,
    /// `|`
    Or,
    /// `^`
    Xor,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&` (short-circuit)
    LAnd,
    /// `||` (short-circuit)
    LOr,
}

/// An expression, tagged with its source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expr {
    /// Source line for diagnostics.
    pub line: usize,
    /// Levels of nesting inside this expression, itself included, as
    /// [`crate::parser::MAX_DEPTH`] counts them (0 for a leaf).
    pub depth: usize,
    /// The expression variant.
    pub kind: ExprKind,
}

/// Expression variants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExprKind {
    /// Integer literal.
    Int(i64),
    /// Variable (local, parameter, global, or define).
    Ident(String),
    /// `&name` — address of a local (stack pointer) or a map reference.
    AddrOf(String),
    /// `*expr` — dereference a pointer at its pointee width.
    Deref(Box<Expr>),
    /// `expr->field` on a struct pointer.
    Member(Box<Expr>, String),
    /// `(type) expr` cast.
    Cast(Type, Box<Expr>),
    /// Unary `!`, `-`, `~`.
    Unary(UnOp, Box<Expr>),
    /// Binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// Builtin call.
    Call(String, Vec<Expr>),
    /// `sizeof(struct x)` / `sizeof(type)`, folded by the parser where
    /// possible and by codegen otherwise.
    SizeOf(Type),
    /// `sizeof(struct name)` for a user struct.
    SizeOfStruct(String),
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    /// Logical not (`!`), yields 0/1.
    Not,
    /// Arithmetic negation.
    Neg,
    /// Bitwise complement.
    BitNot,
}

/// A statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Stmt {
    /// `type name = expr;` — a local declaration.
    Decl {
        /// Source line.
        line: usize,
        /// Declared type.
        ty: Type,
        /// Variable name.
        name: String,
        /// Initializer (required for pointers).
        init: Option<Expr>,
    },
    /// `lvalue = expr;` or compound assignment desugared by the parser.
    Assign {
        /// Source line.
        line: usize,
        /// Assignment target.
        target: LValue,
        /// New value.
        value: Expr,
    },
    /// `if (cond) { .. } else { .. }`.
    If {
        /// Source line.
        line: usize,
        /// Condition (nonzero = true).
        cond: Expr,
        /// Then-branch.
        then_body: Vec<Stmt>,
        /// Else-branch (possibly empty).
        else_body: Vec<Stmt>,
    },
    /// Constant-bound `for` loop; unrolled by codegen.
    For {
        /// Source line.
        line: usize,
        /// Loop variable name.
        var: String,
        /// Inclusive start (must fold to a constant at codegen).
        start: Expr,
        /// Exclusive end (must fold to a constant at codegen, possibly via
        /// a `define` like `NUM_THREADS`).
        end: Expr,
        /// Body.
        body: Vec<Stmt>,
    },
    /// `break;` (inside an unrolled loop).
    Break {
        /// Source line.
        line: usize,
    },
    /// `continue;` (inside an unrolled loop).
    Continue {
        /// Source line.
        line: usize,
    },
    /// `return expr;` or the ranked form `return (expr, rank);`.
    Return {
        /// Source line.
        line: usize,
        /// Return value (executor index or PASS/DROP sentinel).
        value: Expr,
        /// Queue rank for the ranked form: encoded into the high 32 bits
        /// of the return value (`(rank << 32) | value`). `None` for the
        /// classic scalar return, whose value is truncated to `uint32_t`.
        rank: Option<Expr>,
    },
    /// An expression evaluated for effect (helper calls, atomics).
    ExprStmt {
        /// Source line.
        line: usize,
        /// The expression.
        expr: Expr,
    },
}

/// Assignment targets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LValue {
    /// A named variable (local or global).
    Var(String),
    /// `*ptr`.
    Deref(Expr),
    /// `ptr->field`.
    Member(Expr, String),
}

/// The `schedule` entry function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Function {
    /// Function name (must be `schedule`).
    pub name: String,
    /// Parameter names: `(pkt_start, pkt_end)` or empty.
    pub params: Vec<String>,
    /// Body statements.
    pub body: Vec<Stmt>,
}

/// A parsed policy file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Unit {
    /// Struct layout declarations.
    pub structs: Vec<StructDef>,
    /// `SYRUP_MAP` declarations.
    pub maps: Vec<MapDecl>,
    /// Globals.
    pub globals: Vec<GlobalDecl>,
    /// The entry function.
    pub function: Option<Function>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn struct_layout_is_packed() {
        let s = StructDef {
            name: "app_hdr".into(),
            fields: vec![
                ("user_id".into(), Type::U32),
                ("op".into(), Type::U16),
                ("key".into(), Type::U64),
            ],
        };
        assert_eq!(s.offset_of("user_id"), Some((0, &Type::U32)));
        assert_eq!(s.offset_of("op"), Some((4, &Type::U16)));
        assert_eq!(s.offset_of("key"), Some((6, &Type::U64)));
        assert_eq!(s.size(), 14);
        assert_eq!(s.offset_of("missing"), None);
    }

    #[test]
    fn type_sizes() {
        assert_eq!(Type::U8.size(), 1);
        assert_eq!(Type::U64.size(), 8);
        assert_eq!(Type::VoidPtr.size(), 8);
        assert!(Type::Ptr(Box::new(Type::U64)).is_ptr());
        assert!(!Type::U32.is_ptr());
    }
}
