//! Code generation: AST → `syrup-ebpf` bytecode.
//!
//! The generator is deliberately verifier-aware; its conventions exist so
//! that the emitted code passes the static verifier's provenance rules:
//!
//! * `pkt_start` and `pkt_end` live in the callee-saved `r6`/`r7` for the
//!   whole program (helpers clobber `r1`–`r5`, and pointers may not be
//!   spilled to the stack).
//! * Pointer-typed locals (map-value pointers from `syr_map_lookup_elem`,
//!   struct pointers into the packet) are allocated to `r8`/`r9`; a policy
//!   may have at most two live pointer locals, which covers every policy
//!   in the paper.
//! * Scalar locals and expression temporaries live in stack slots.
//! * `for` loops are unrolled at compile time (their bounds must fold to
//!   constants), exactly as Clang unrolls loops for the eBPF target — the
//!   paper's Table 2 attributes SCAN-Avoid's instruction count to this.
//! * Globals are compiled to slots of an implicit array map (eBPF's `.bss`
//!   treatment); reads insert the null-check-or-`PASS` guard the paper
//!   says it omits from listings "for brevity".
//! * `pkt_end - pkt_start < K` comparisons are strength-reduced to the
//!   `pkt_start + K > pkt_end` form whose branch the verifier uses as a
//!   packet bounds proof.

use std::collections::HashMap;

use syrup_ebpf::asm::Asm;
use syrup_ebpf::insn::{AluOp, CmpOp, MemSize, Operand, Reg};
use syrup_ebpf::maps::{MapDef, MapId, MapRegistry};
use syrup_ebpf::{ret, HelperId};

use crate::ast::{BinOp, Expr, ExprKind, LValue, MapDeclKind, Stmt, StructDef, Type, UnOp, Unit};
use crate::{CompileOptions, CompiledPolicy, LangError};

/// Scratch registers available for expression evaluation.
const SCRATCH: [Reg; 5] = [Reg::R0, Reg::R1, Reg::R2, Reg::R3, Reg::R4];
/// Registers for pointer-typed locals.
const PTR_REGS: [Reg; 2] = [Reg::R8, Reg::R9];

/// What kind of value a variable or expression denotes.
#[derive(Debug, Clone, PartialEq, Eq)]
enum VKind {
    /// A scalar of the given byte width (1/2/4/8).
    Scalar(u32),
    /// The packet start pointer (or derived packet pointers).
    PktPtr,
    /// The packet end pointer.
    PktEnd,
    /// A possibly-null `uint64_t*`-style map value pointer with pointee
    /// width in bytes.
    MapVal(u32),
    /// A struct pointer into the packet.
    Struct(String),
}

impl VKind {
    fn is_ptr(&self) -> bool {
        !matches!(self, VKind::Scalar(_))
    }
}

#[derive(Debug, Clone)]
enum Binding {
    /// Parameter or pointer local pinned to a register.
    Reg(Reg, VKind),
    /// Scalar local in a stack slot (offset from `r10`, negative).
    Stack(i16),
    /// A packet-derived pointer local equal to `pkt_start + off`; costs no
    /// register because it is rematerialized at each use, the way a real
    /// compiler treats cheap recomputable addresses.
    PktDerived(i64, VKind),
    /// A global: index into the globals map.
    Global(u32, VKind),
    /// A map declared in the file or bound externally.
    Map(MapId),
    /// A compile-time constant.
    Const(i64),
}

struct Cg {
    asm: Asm,
    structs: HashMap<String, StructDef>,
    bindings: HashMap<String, Binding>,
    globals_map: Option<MapId>,
    next_label: u32,
    /// Next free stack byte (grows downward from 0 toward -512).
    frame: i16,
    /// Reserved slot for map keys built on the fly.
    key_slot: i16,
    /// Reserved slot for values passed by address to `map_update`.
    val_slot: i16,
    /// Reserved slot spilling the rank across the value evaluation in
    /// ranked returns (`return (q, rank);`).
    rank_slot: i16,
    /// Stack of (break_label, continue_label) for unrolled loops.
    loops: Vec<(String, String)>,
    ptr_regs_used: usize,
}

/// Generates a program for `unit`.
pub fn generate(
    unit: &Unit,
    opts: &CompileOptions,
    maps: &MapRegistry,
) -> Result<CompiledPolicy, LangError> {
    let func = unit
        .function
        .as_ref()
        .ok_or_else(|| LangError::new(1, "policy must define a `schedule` function"))?;
    if func.name != "schedule" {
        return Err(LangError::new(
            1,
            "the entry function must be named `schedule`",
        ));
    }
    if !(func.params.is_empty() || func.params.len() == 2) {
        return Err(LangError::new(
            1,
            "schedule must take (void *pkt_start, void *pkt_end) or no parameters",
        ));
    }

    let mut cg = Cg {
        asm: Asm::new(),
        structs: unit
            .structs
            .iter()
            .map(|s| (s.name.clone(), s.clone()))
            .collect(),
        bindings: HashMap::new(),
        globals_map: None,
        next_label: 0,
        frame: 0,
        key_slot: 0,
        val_slot: 0,
        rank_slot: 0,
        loops: Vec::new(),
        ptr_regs_used: 0,
    };

    // Reserved temp slots.
    cg.key_slot = cg.alloc_slot();
    cg.val_slot = cg.alloc_slot();
    cg.rank_slot = cg.alloc_slot();

    // Compile-time constants: PASS/DROP/NULL plus experiment defines.
    cg.bindings
        .insert("PASS".into(), Binding::Const(ret::PASS as i64));
    cg.bindings
        .insert("DROP".into(), Binding::Const(ret::DROP as i64));
    cg.bindings.insert("NULL".into(), Binding::Const(0));
    for (name, value) in &opts.defines {
        cg.bindings.insert(name.clone(), Binding::Const(*value));
    }

    // Declared maps.
    let mut created_maps = HashMap::new();
    for decl in &unit.maps {
        let def = match decl.kind {
            MapDeclKind::Array => MapDef::u64_array(decl.max_entries as u32),
            MapDeclKind::Hash => MapDef::u64_hash(decl.max_entries as u32),
        };
        let id = maps.create(def);
        created_maps.insert(decl.name.clone(), id);
        cg.bindings.insert(decl.name.clone(), Binding::Map(id));
    }
    for (name, id) in &opts.external_maps {
        if maps.get(*id).is_none() {
            return Err(LangError::new(
                1,
                format!("external map `{name}` does not exist"),
            ));
        }
        cg.bindings.insert(name.clone(), Binding::Map(*id));
    }

    // Globals: one u64 slot each in an implicit array map, initialized at
    // deploy (compile) time.
    if !unit.globals.is_empty() {
        let gmap = maps.create(MapDef::u64_array(unit.globals.len() as u32));
        let gref = maps.get(gmap).expect("map just created");
        for (i, g) in unit.globals.iter().enumerate() {
            gref.update_u64(i as u32, g.init as u64)
                .expect("in-range global slot");
            let width = g.ty.size();
            cg.bindings.insert(
                g.name.clone(),
                Binding::Global(i as u32, VKind::Scalar(width)),
            );
        }
        cg.globals_map = Some(gmap);
    }

    // Parameters.
    if func.params.len() == 2 {
        cg.bindings
            .insert(func.params[0].clone(), Binding::Reg(Reg::R6, VKind::PktPtr));
        cg.bindings
            .insert(func.params[1].clone(), Binding::Reg(Reg::R7, VKind::PktEnd));
        // Prologue: r6 = ctx->data, r7 = ctx->data_end.
        cg.asm = std::mem::take(&mut cg.asm)
            .ldx_dw(Reg::R7, Reg::R1, 8)
            .ldx_dw(Reg::R6, Reg::R1, 0);
    }

    cg.body(&func.body)?;

    // Implicit `return PASS` if control reaches the end.
    cg.asm = std::mem::take(&mut cg.asm)
        .mov64_imm(Reg::R0, ret::PASS as i32)
        .exit();

    let program = cg
        .asm
        .build("schedule")
        .map_err(|e| LangError::new(1, format!("assembly error: {e}")))?;
    Ok(CompiledPolicy {
        program,
        created_maps,
        globals_map: cg.globals_map,
        source_loc: 0,
    })
}

impl Cg {
    fn alloc_slot(&mut self) -> i16 {
        self.frame -= 8;
        self.frame
    }

    fn fresh_label(&mut self, tag: &str) -> String {
        self.next_label += 1;
        format!("__{tag}_{}", self.next_label)
    }

    fn with_asm(&mut self, f: impl FnOnce(Asm) -> Asm) {
        let asm = std::mem::take(&mut self.asm);
        self.asm = f(asm);
    }

    /// Emits a block with C scoping: locals declared inside (and their
    /// stack slots and pointer registers) are released at block end, which
    /// is what lets unrolled loop bodies re-declare their locals.
    fn body(&mut self, stmts: &[Stmt]) -> Result<(), LangError> {
        let ptr_save = self.ptr_regs_used;
        let frame_save = self.frame;
        let mut undo: Vec<(String, Option<Binding>)> = Vec::new();
        for stmt in stmts {
            if let Stmt::Decl { name, .. } = stmt {
                undo.push((name.clone(), self.bindings.get(name).cloned()));
            }
            self.stmt(stmt)?;
        }
        for (name, old) in undo.into_iter().rev() {
            match old {
                Some(b) => {
                    self.bindings.insert(name, b);
                }
                None => {
                    self.bindings.remove(&name);
                }
            }
        }
        self.ptr_regs_used = ptr_save;
        self.frame = frame_save;
        Ok(())
    }

    fn stmt(&mut self, stmt: &Stmt) -> Result<(), LangError> {
        match stmt {
            Stmt::Decl {
                line,
                ty,
                name,
                init,
            } => self.decl(*line, ty, name, init.as_ref()),
            Stmt::Assign {
                line,
                target,
                value,
            } => self.assign(*line, target, value),
            Stmt::If {
                line,
                cond,
                then_body,
                else_body,
            } => {
                let else_l = self.fresh_label("else");
                let end_l = self.fresh_label("endif");
                self.branch_if_false(*line, cond, &else_l)?;
                self.body(then_body)?;
                if else_body.is_empty() {
                    self.with_asm(|a| a.label(&else_l));
                } else {
                    self.with_asm(|a| a.jmp(&end_l).label(&else_l));
                    self.body(else_body)?;
                    self.with_asm(|a| a.label(&end_l));
                }
                Ok(())
            }
            Stmt::For {
                line,
                var,
                start,
                end,
                body,
            } => {
                let start_c = self.const_fold(start).ok_or_else(|| {
                    LangError::new(*line, "for-loop start must be a compile-time constant")
                })?;
                let end_c = self.const_fold(end).ok_or_else(|| {
                    LangError::new(*line, "for-loop bound must be a compile-time constant")
                })?;
                if end_c - start_c > 64 {
                    return Err(LangError::new(
                        *line,
                        "for-loop unrolls to more than 64 iterations",
                    ));
                }
                let break_l = self.fresh_label("for_end");
                for i in start_c..end_c {
                    let cont_l = self.fresh_label("for_next");
                    self.loops.push((break_l.clone(), cont_l.clone()));
                    let saved = self.bindings.insert(var.clone(), Binding::Const(i));
                    self.body(body)?;
                    match saved {
                        Some(b) => {
                            self.bindings.insert(var.clone(), b);
                        }
                        None => {
                            self.bindings.remove(var);
                        }
                    }
                    self.loops.pop();
                    self.with_asm(|a| a.label(&cont_l));
                }
                self.with_asm(|a| a.label(&break_l));
                Ok(())
            }
            Stmt::Break { line } => {
                let (break_l, _) = self
                    .loops
                    .last()
                    .cloned()
                    .ok_or_else(|| LangError::new(*line, "break outside a loop"))?;
                self.with_asm(|a| a.jmp(&break_l));
                Ok(())
            }
            Stmt::Continue { line } => {
                let (_, cont_l) = self
                    .loops
                    .last()
                    .cloned()
                    .ok_or_else(|| LangError::new(*line, "continue outside a loop"))?;
                self.with_asm(|a| a.jmp(&cont_l));
                Ok(())
            }
            Stmt::Return { line, value, rank } => {
                match rank {
                    None => {
                        self.scalar_expr(*line, value, Reg::R0)?;
                        // Truncate to the uint32_t return type.
                        self.with_asm(|a| {
                            a.alu32(AluOp::Mov, Reg::R0, Operand::Reg(Reg::R0)).exit()
                        });
                    }
                    Some(rank) => {
                        // `return (q, rank);` encodes (rank << 32) | q.
                        // Both halves are truncated to uint32_t first; the
                        // rank is spilled across the value evaluation
                        // (helpers clobber R1-R5, the stack survives).
                        let rank_slot = self.rank_slot;
                        self.scalar_expr(*line, rank, Reg::R0)?;
                        self.with_asm(|a| {
                            a.alu32(AluOp::Mov, Reg::R0, Operand::Reg(Reg::R0)).stx_dw(
                                Reg::R10,
                                rank_slot,
                                Reg::R0,
                            )
                        });
                        self.scalar_expr(*line, value, Reg::R0)?;
                        self.with_asm(|a| {
                            a.alu32(AluOp::Mov, Reg::R0, Operand::Reg(Reg::R0))
                                .ldx_dw(Reg::R1, Reg::R10, rank_slot)
                                .lsh64_imm(Reg::R1, 32)
                                .alu64(AluOp::Or, Reg::R0, Operand::Reg(Reg::R1))
                                .exit()
                        });
                    }
                }
                Ok(())
            }
            Stmt::ExprStmt { line, expr } => {
                // Effects only: calls and atomics.
                match &expr.kind {
                    ExprKind::Call(..) => {
                        self.scalar_or_call(*line, expr, Reg::R0)?;
                        Ok(())
                    }
                    _ => {
                        self.scalar_expr(*line, expr, Reg::R0)?;
                        Ok(())
                    }
                }
            }
        }
    }

    fn decl(
        &mut self,
        line: usize,
        ty: &Type,
        name: &str,
        init: Option<&Expr>,
    ) -> Result<(), LangError> {
        if self.bindings.contains_key(name) {
            return Err(LangError::new(line, format!("`{name}` is already defined")));
        }
        if ty.is_ptr() {
            let init = init.ok_or_else(|| {
                LangError::new(line, "pointer locals must be initialized at declaration")
            })?;
            // Packet-derived pointers (`pkt_start + const`) cost no
            // register: remember the offset and rematerialize at each use.
            if let Some(off) = self.fold_pkt_offset(init) {
                let declared = self.vkind_of_type(line, ty)?;
                let kind = match declared {
                    VKind::Struct(s) => VKind::Struct(s),
                    _ => VKind::PktPtr,
                };
                self.bindings
                    .insert(name.to_string(), Binding::PktDerived(off, kind));
                return Ok(());
            }
            if self.ptr_regs_used >= PTR_REGS.len() {
                return Err(LangError::new(
                    line,
                    "too many pointer locals (at most two are supported)",
                ));
            }
            let reg = PTR_REGS[self.ptr_regs_used];
            self.ptr_regs_used += 1;
            let kind = self.ptr_expr(line, init, Reg::R0)?;
            let declared = self.vkind_of_type(line, ty)?;
            // The declared pointee width wins for plain scalar pointers.
            let kind = match (&declared, kind) {
                (VKind::MapVal(w), VKind::MapVal(_)) => VKind::MapVal(*w),
                (VKind::Struct(s), VKind::PktPtr) => VKind::Struct(s.clone()),
                (_, k) => k,
            };
            self.with_asm(|a| a.mov64_reg(reg, Reg::R0));
            self.bindings
                .insert(name.to_string(), Binding::Reg(reg, kind));
            Ok(())
        } else {
            let slot = self.alloc_slot();
            if -(i64::from(slot.unsigned_abs())) < -(512i64) {
                return Err(LangError::new(line, "stack frame exceeds 512 bytes"));
            }
            if let Some(init) = init {
                self.scalar_expr(line, init, Reg::R0)?;
                self.with_asm(|a| a.stx_dw(Reg::R10, slot, Reg::R0));
            } else {
                self.with_asm(|a| a.st_dw(Reg::R10, slot, 0));
            }
            self.bindings.insert(name.to_string(), Binding::Stack(slot));
            Ok(())
        }
    }

    fn vkind_of_type(&self, line: usize, ty: &Type) -> Result<VKind, LangError> {
        Ok(match ty {
            Type::U8 => VKind::Scalar(1),
            Type::U16 => VKind::Scalar(2),
            Type::U32 => VKind::Scalar(4),
            Type::U64 => VKind::Scalar(8),
            Type::VoidPtr => VKind::PktPtr,
            Type::Ptr(inner) => VKind::MapVal(inner.size()),
            Type::StructPtr(name) => {
                if !self.structs.contains_key(name) {
                    return Err(LangError::new(line, format!("unknown struct `{name}`")));
                }
                VKind::Struct(name.clone())
            }
        })
    }

    /// Folds an expression of the shape `pkt_start (+/- const)*`, possibly
    /// under pointer casts, to its constant packet offset.
    fn fold_pkt_offset(&self, e: &Expr) -> Option<i64> {
        match &e.kind {
            ExprKind::Ident(name) => match self.bindings.get(name) {
                Some(Binding::Reg(reg, VKind::PktPtr)) if *reg == Reg::R6 => Some(0),
                Some(Binding::PktDerived(off, _)) => Some(*off),
                _ => None,
            },
            ExprKind::Cast(ty, inner) if ty.is_ptr() => self.fold_pkt_offset(inner),
            ExprKind::Binary(BinOp::Add, a, b) => {
                Some(self.fold_pkt_offset(a)? + self.const_fold(b)?)
            }
            ExprKind::Binary(BinOp::Sub, a, b) => {
                Some(self.fold_pkt_offset(a)? - self.const_fold(b)?)
            }
            _ => None,
        }
    }

    fn assign(&mut self, line: usize, target: &LValue, value: &Expr) -> Result<(), LangError> {
        match target {
            LValue::Var(name) => match self.bindings.get(name).cloned() {
                Some(Binding::Stack(slot)) => {
                    self.scalar_expr(line, value, Reg::R0)?;
                    self.with_asm(|a| a.stx_dw(Reg::R10, slot, Reg::R0));
                    Ok(())
                }
                Some(Binding::Reg(reg, kind)) if kind.is_ptr() => {
                    let new_kind = self.ptr_expr(line, value, Reg::R0)?;
                    let kind = match (&kind, new_kind) {
                        (VKind::MapVal(w), VKind::MapVal(_)) => VKind::MapVal(*w),
                        (VKind::Struct(s), VKind::PktPtr) => VKind::Struct(s.clone()),
                        (_, k) => k,
                    };
                    self.with_asm(|a| a.mov64_reg(reg, Reg::R0));
                    self.bindings.insert(name.clone(), Binding::Reg(reg, kind));
                    Ok(())
                }
                Some(Binding::Reg(..)) => Err(LangError::new(line, "cannot assign to a parameter")),
                Some(Binding::Global(index, _)) => {
                    // Evaluate, park in the value slot across the lookup
                    // call, then store through the checked pointer.
                    self.scalar_expr(line, value, Reg::R0)?;
                    let vslot = self.val_slot;
                    self.with_asm(|a| a.stx_dw(Reg::R10, vslot, Reg::R0));
                    self.global_ptr(index)?;
                    self.with_asm(|a| {
                        a.ldx_dw(Reg::R1, Reg::R10, vslot)
                            .stx_dw(Reg::R0, 0, Reg::R1)
                    });
                    Ok(())
                }
                Some(Binding::PktDerived(..)) => Err(LangError::new(
                    line,
                    format!("`{name}` is a packet-derived pointer and cannot be reassigned"),
                )),
                Some(Binding::Const(_)) => Err(LangError::new(
                    line,
                    format!("cannot assign to constant `{name}`"),
                )),
                Some(Binding::Map(_)) => Err(LangError::new(
                    line,
                    format!("cannot assign to map `{name}`"),
                )),
                None => Err(LangError::new(line, format!("unknown variable `{name}`"))),
            },
            LValue::Deref(ptr_expr) => {
                // Value first, parked in the value slot: materializing the
                // address shares the pointer scratch register (`r5`) with
                // expression evaluation, so computing the address before
                // the value would let a packet or struct load inside
                // `value` clobber it (found by syrup-fuzz's differential
                // oracle).
                self.scalar_expr(line, value, Reg::R0)?;
                let vslot = self.val_slot;
                self.with_asm(|a| a.stx_dw(Reg::R10, vslot, Reg::R0));
                let (reg, kind) = self.resolve_ptr_reg(line, ptr_expr)?;
                let size = match kind {
                    VKind::MapVal(w) => mem_size(w),
                    VKind::PktPtr => MemSize::B,
                    _ => return Err(LangError::new(line, "cannot store through this pointer")),
                };
                self.with_asm(|a| {
                    a.ldx_dw(Reg::R1, Reg::R10, vslot)
                        .raw(syrup_ebpf::Insn::StoreMem {
                            size,
                            base: reg,
                            off: 0,
                            src: Reg::R1,
                        })
                });
                Ok(())
            }
            LValue::Member(base, field) => {
                // Value first for the same scratch-clobber reason as the
                // `Deref` arm above.
                self.scalar_expr(line, value, Reg::R0)?;
                let vslot = self.val_slot;
                self.with_asm(|a| a.stx_dw(Reg::R10, vslot, Reg::R0));
                let (reg, kind) = self.resolve_ptr_reg(line, base)?;
                let VKind::Struct(sname) = kind else {
                    return Err(LangError::new(line, "`->` requires a struct pointer"));
                };
                let sdef = self
                    .structs
                    .get(&sname)
                    .cloned()
                    .ok_or_else(|| LangError::new(line, format!("unknown struct `{sname}`")))?;
                let (off, fty) = sdef.offset_of(field).ok_or_else(|| {
                    LangError::new(line, format!("no field `{field}` in `{sname}`"))
                })?;
                let size = mem_size(fty.size());
                self.with_asm(|a| {
                    a.ldx_dw(Reg::R1, Reg::R10, vslot)
                        .raw(syrup_ebpf::Insn::StoreMem {
                            size,
                            base: reg,
                            off: off as i16,
                            src: Reg::R1,
                        })
                });
                Ok(())
            }
        }
    }

    /// Emits a pointer-valued expression into `dst` and reports its kind.
    fn ptr_expr(&mut self, line: usize, e: &Expr, dst: Reg) -> Result<VKind, LangError> {
        match &e.kind {
            ExprKind::Ident(name) => match self.bindings.get(name).cloned() {
                Some(Binding::Reg(reg, kind)) if kind.is_ptr() => {
                    self.with_asm(|a| a.mov64_reg(dst, reg));
                    Ok(kind)
                }
                Some(Binding::PktDerived(off, kind)) => {
                    self.with_asm(|a| {
                        let a = a.mov64_reg(dst, Reg::R6);
                        if off != 0 {
                            a.add64_imm(dst, off as i32)
                        } else {
                            a
                        }
                    });
                    Ok(kind)
                }
                _ => Err(LangError::new(line, format!("`{name}` is not a pointer"))),
            },
            ExprKind::Cast(ty, inner) => {
                let kind = self.ptr_expr(line, inner, dst)?;
                let declared = self.vkind_of_type(line, ty)?;
                Ok(match (declared, kind) {
                    (VKind::MapVal(w), VKind::MapVal(_)) => VKind::MapVal(w),
                    (VKind::Struct(s), VKind::PktPtr) => VKind::Struct(s),
                    (VKind::Struct(s), VKind::Struct(_)) => VKind::Struct(s),
                    (VKind::PktPtr, k @ (VKind::PktPtr | VKind::Struct(_))) => {
                        if matches!(k, VKind::Struct(_)) {
                            VKind::PktPtr
                        } else {
                            k
                        }
                    }
                    // Reinterpreting a packet pointer as a scalar pointer
                    // keeps packet provenance; deref width comes from the
                    // cast.
                    (VKind::MapVal(w), VKind::PktPtr | VKind::Struct(_)) => {
                        // `*(uint64_t *)(pkt + 8)` stays a packet pointer;
                        // remember the width via a PktScalar trick below.
                        // We encode it as Struct-free PktPtr and let Deref
                        // consult the cast; handled in scalar_expr.
                        let _ = w;
                        VKind::PktPtr
                    }
                    (d, _) => d,
                })
            }
            ExprKind::Binary(BinOp::Add | BinOp::Sub, a, b) => {
                let op = match &e.kind {
                    ExprKind::Binary(BinOp::Add, ..) => AluOp::Add,
                    _ => AluOp::Sub,
                };
                let kind = self.ptr_expr(line, a, dst)?;
                if let Some(k) = self.const_fold(b) {
                    self.with_asm(|a| a.alu64(op, dst, Operand::Imm(k as i32)));
                } else {
                    let scratch = next_scratch(line, dst)?;
                    self.scalar_expr(line, b, scratch)?;
                    self.with_asm(|a| a.alu64(op, dst, Operand::Reg(scratch)));
                }
                Ok(kind)
            }
            ExprKind::Call(name, args) => {
                let ret_kind = self.call(line, name, args, dst)?;
                if !ret_kind.is_ptr() {
                    return Err(LangError::new(
                        line,
                        format!("`{name}` does not return a pointer"),
                    ));
                }
                Ok(ret_kind)
            }
            ExprKind::AddrOf(_) => Err(LangError::new(
                line,
                "`&` expressions may only appear as helper-call arguments",
            )),
            _ => Err(LangError::new(line, "expected a pointer-valued expression")),
        }
    }

    /// Resolves a pointer expression to the register already holding it
    /// (for register-resident locals) or materializes it into `r5`.
    fn resolve_ptr_reg(&mut self, line: usize, e: &Expr) -> Result<(Reg, VKind), LangError> {
        if let ExprKind::Ident(name) = &e.kind {
            if let Some(Binding::Reg(reg, kind)) = self.bindings.get(name).cloned() {
                if kind.is_ptr() {
                    return Ok((reg, kind));
                }
            }
        }
        let kind = self.ptr_expr(line, e, Reg::R5)?;
        Ok((Reg::R5, kind))
    }

    /// Emits the null-checked pointer to global slot `index` into `r0`.
    fn global_ptr(&mut self, index: u32) -> Result<(), LangError> {
        let gmap = self
            .globals_map
            .expect("globals map exists if globals bound");
        let key_slot = self.key_slot;
        let ok = self.fresh_label("gok");
        self.with_asm(|a| {
            a.st_w(Reg::R10, key_slot, index as i32)
                .load_map_fd(Reg::R1, gmap)
                .mov64_reg(Reg::R2, Reg::R10)
                .add64_imm(Reg::R2, i32::from(key_slot))
                .call(HelperId::MapLookupElem)
                .jne_imm(Reg::R0, 0, &ok)
                // Unreachable in practice: globals are array-backed; PASS
                // keeps the policy safe if the map is resized.
                .mov64_imm(Reg::R0, ret::PASS as i32)
                .exit()
                .label(&ok)
        });
        Ok(())
    }

    /// Tries to fold `e` to a compile-time integer.
    fn const_fold(&self, e: &Expr) -> Option<i64> {
        match &e.kind {
            ExprKind::Int(n) => Some(*n),
            ExprKind::Ident(name) => match self.bindings.get(name) {
                Some(Binding::Const(k)) => Some(*k),
                _ => None,
            },
            ExprKind::SizeOf(ty) => Some(i64::from(ty.size())),
            ExprKind::SizeOfStruct(name) => self.structs.get(name).map(|s| i64::from(s.size())),
            ExprKind::Unary(UnOp::Neg, inner) => Some(self.const_fold(inner)?.wrapping_neg()),
            ExprKind::Unary(UnOp::BitNot, inner) => Some(!self.const_fold(inner)?),
            ExprKind::Unary(UnOp::Not, inner) => Some(i64::from(self.const_fold(inner)? == 0)),
            ExprKind::Binary(op, a, b) => {
                let a = self.const_fold(a)?;
                let b = self.const_fold(b)?;
                Some(match op {
                    BinOp::Add => a.wrapping_add(b),
                    BinOp::Sub => a.wrapping_sub(b),
                    BinOp::Mul => a.wrapping_mul(b),
                    BinOp::Div => {
                        if b == 0 {
                            0
                        } else {
                            ((a as u64) / (b as u64)) as i64
                        }
                    }
                    BinOp::Mod => {
                        if b == 0 {
                            a
                        } else {
                            ((a as u64) % (b as u64)) as i64
                        }
                    }
                    BinOp::And => a & b,
                    BinOp::Or => a | b,
                    BinOp::Xor => a ^ b,
                    BinOp::Shl => ((a as u64) << (b as u64 & 63)) as i64,
                    BinOp::Shr => ((a as u64) >> (b as u64 & 63)) as i64,
                    BinOp::Eq => i64::from(a == b),
                    BinOp::Ne => i64::from(a != b),
                    BinOp::Lt => i64::from((a as u64) < (b as u64)),
                    BinOp::Le => i64::from(a as u64 <= b as u64),
                    BinOp::Gt => i64::from(a as u64 > b as u64),
                    BinOp::Ge => i64::from(a as u64 >= b as u64),
                    BinOp::LAnd => i64::from(a != 0 && b != 0),
                    BinOp::LOr => i64::from(a != 0 || b != 0),
                })
            }
            _ => None,
        }
    }

    /// Whether evaluating `e` involves a helper call (which clobbers
    /// `r1`–`r5`).
    fn contains_call(&self, e: &Expr) -> bool {
        match &e.kind {
            ExprKind::Call(..) => true,
            ExprKind::Unary(_, x) | ExprKind::Deref(x) | ExprKind::Cast(_, x) => {
                self.contains_call(x)
            }
            ExprKind::Member(x, _) => self.contains_call(x),
            ExprKind::Binary(_, a, b) => self.contains_call(a) || self.contains_call(b),
            ExprKind::Ident(name) => {
                // Global reads compile to a lookup call.
                matches!(self.bindings.get(name), Some(Binding::Global(..)))
            }
            _ => false,
        }
    }

    /// Whether evaluating `e` materializes a boolean via branches
    /// (`branch_if_true`), which uses the fixed scratch registers
    /// `r0`/`r3`/`r4` and so clobbers any operand an enclosing
    /// expression is holding there.
    fn contains_bool(&self, e: &Expr) -> bool {
        match &e.kind {
            ExprKind::Unary(UnOp::Not, _) => true,
            ExprKind::Binary(
                BinOp::Eq
                | BinOp::Ne
                | BinOp::Lt
                | BinOp::Le
                | BinOp::Gt
                | BinOp::Ge
                | BinOp::LAnd
                | BinOp::LOr,
                ..,
            ) => true,
            ExprKind::Unary(_, x) | ExprKind::Deref(x) | ExprKind::Cast(_, x) => {
                self.contains_bool(x)
            }
            ExprKind::Member(x, _) => self.contains_bool(x),
            ExprKind::Binary(_, a, b) => self.contains_bool(a) || self.contains_bool(b),
            _ => false,
        }
    }

    /// Emits a scalar (or call) expression into `dst`.
    fn scalar_expr(&mut self, line: usize, e: &Expr, dst: Reg) -> Result<(), LangError> {
        if let Some(k) = self.const_fold(e) {
            if i32::try_from(k).is_ok() {
                self.with_asm(|a| a.mov64_imm(dst, k as i32));
            } else {
                self.with_asm(|a| a.load_imm64(dst, k));
            }
            return Ok(());
        }
        match &e.kind {
            ExprKind::Int(_) | ExprKind::SizeOf(_) | ExprKind::SizeOfStruct(_) => {
                unreachable!("constants folded above")
            }
            ExprKind::Ident(name) => match self.bindings.get(name).cloned() {
                Some(Binding::Stack(slot)) => {
                    self.with_asm(|a| a.ldx_dw(dst, Reg::R10, slot));
                    Ok(())
                }
                Some(Binding::Global(index, VKind::Scalar(w))) => {
                    self.global_ptr(index)?;
                    self.with_asm(|a| {
                        a.raw(syrup_ebpf::Insn::LoadMem {
                            size: mem_size(w),
                            dst,
                            base: Reg::R0,
                            off: 0,
                        })
                    });
                    Ok(())
                }
                Some(Binding::Reg(reg, VKind::Scalar(_))) => {
                    self.with_asm(|a| a.mov64_reg(dst, reg));
                    Ok(())
                }
                Some(Binding::Reg(..)) => Err(LangError::new(
                    line,
                    format!("`{name}` is a pointer; dereference or compare it instead"),
                )),
                _ => Err(LangError::new(line, format!("unknown variable `{name}`"))),
            },
            ExprKind::Deref(inner) => {
                let width = deref_width(inner).unwrap_or(8);
                let (reg, kind) = self.resolve_ptr_reg(line, inner)?;
                let size = match kind {
                    VKind::MapVal(w) => mem_size(w),
                    VKind::PktPtr | VKind::Struct(_) => mem_size(width),
                    _ => return Err(LangError::new(line, "cannot dereference this value")),
                };
                self.with_asm(|a| {
                    a.raw(syrup_ebpf::Insn::LoadMem {
                        size,
                        dst,
                        base: reg,
                        off: 0,
                    })
                });
                Ok(())
            }
            ExprKind::Member(base, field) => {
                let (reg, kind) = self.resolve_ptr_reg(line, base)?;
                let VKind::Struct(sname) = kind else {
                    return Err(LangError::new(line, "`->` requires a struct pointer"));
                };
                let sdef = self
                    .structs
                    .get(&sname)
                    .cloned()
                    .ok_or_else(|| LangError::new(line, format!("unknown struct `{sname}`")))?;
                let (off, fty) = sdef.offset_of(field).ok_or_else(|| {
                    LangError::new(line, format!("no field `{field}` in `{sname}`"))
                })?;
                let size = mem_size(fty.size());
                self.with_asm(|a| {
                    a.raw(syrup_ebpf::Insn::LoadMem {
                        size,
                        dst,
                        base: reg,
                        off: off as i16,
                    })
                });
                Ok(())
            }
            ExprKind::Cast(ty, inner) => {
                if ty.is_ptr() {
                    return Err(LangError::new(
                        line,
                        "pointer casts are only valid in pointer context",
                    ));
                }
                self.scalar_expr(line, inner, dst)?;
                // Truncate to the target width.
                match ty.size() {
                    8 => {}
                    4 => self.with_asm(|a| a.alu32(AluOp::Mov, dst, Operand::Reg(dst))),
                    w => {
                        let mask = (1i64 << (w * 8)) - 1;
                        self.with_asm(|a| a.alu64(AluOp::And, dst, Operand::Imm(mask as i32)));
                    }
                }
                Ok(())
            }
            ExprKind::Unary(UnOp::Neg, inner) => {
                self.scalar_expr(line, inner, dst)?;
                self.with_asm(|a| {
                    a.raw(syrup_ebpf::Insn::Neg {
                        w: syrup_ebpf::Width::W64,
                        dst,
                    })
                });
                Ok(())
            }
            ExprKind::Unary(UnOp::BitNot, inner) => {
                self.scalar_expr(line, inner, dst)?;
                let scratch = next_scratch(line, dst)?;
                self.with_asm(|a| a.load_imm64(scratch, -1).xor64_reg(dst, scratch));
                Ok(())
            }
            ExprKind::Unary(UnOp::Not, _)
            | ExprKind::Binary(
                BinOp::Eq
                | BinOp::Ne
                | BinOp::Lt
                | BinOp::Le
                | BinOp::Gt
                | BinOp::Ge
                | BinOp::LAnd
                | BinOp::LOr,
                ..,
            ) => {
                // Materialize a boolean via branches.
                let true_l = self.fresh_label("btrue");
                let end_l = self.fresh_label("bend");
                self.branch_if_true(line, e, &true_l)?;
                self.with_asm(|a| {
                    a.mov64_imm(dst, 0)
                        .jmp(&end_l)
                        .label(&true_l)
                        .mov64_imm(dst, 1)
                        .label(&end_l)
                });
                Ok(())
            }
            ExprKind::Binary(op, a, b) => {
                let alu = match op {
                    BinOp::Add => AluOp::Add,
                    BinOp::Sub => AluOp::Sub,
                    BinOp::Mul => AluOp::Mul,
                    BinOp::Div => AluOp::Div,
                    BinOp::Mod => AluOp::Mod,
                    BinOp::And => AluOp::And,
                    BinOp::Or => AluOp::Or,
                    BinOp::Xor => AluOp::Xor,
                    BinOp::Shl => AluOp::Lsh,
                    BinOp::Shr => AluOp::Rsh,
                    _ => unreachable!("comparisons handled above"),
                };
                if let Some(k) = self.const_fold(b) {
                    self.scalar_expr(line, a, dst)?;
                    if i32::try_from(k).is_ok() {
                        self.with_asm(|x| x.alu64(alu, dst, Operand::Imm(k as i32)));
                    } else {
                        let scratch = next_scratch(line, dst)?;
                        self.with_asm(|x| {
                            x.load_imm64(scratch, k)
                                .alu64(alu, dst, Operand::Reg(scratch))
                        });
                    }
                    return Ok(());
                }
                if self.contains_call(b) || self.contains_bool(b) {
                    // Park the left side in a stack slot: a call clobbers
                    // `r1`–`r5`, and a boolean materialization clobbers
                    // `r0`/`r3`/`r4` (found by syrup-fuzz's differential
                    // oracle).
                    self.scalar_expr(line, a, dst)?;
                    let slot = self.alloc_slot();
                    self.with_asm(|x| x.stx_dw(Reg::R10, slot, dst));
                    self.scalar_expr(line, b, Reg::R0)?;
                    let scratch = if dst == Reg::R1 {
                        next_scratch(line, Reg::R1)?
                    } else {
                        next_scratch(line, Reg::R0)?
                    };
                    self.with_asm(|x| {
                        x.mov64_reg(scratch, Reg::R0)
                            .ldx_dw(dst, Reg::R10, slot)
                            .alu64(alu, dst, Operand::Reg(scratch))
                    });
                    return Ok(());
                }
                self.scalar_expr(line, a, dst)?;
                let scratch = next_scratch(line, dst)?;
                self.scalar_expr(line, b, scratch)?;
                self.with_asm(|x| x.alu64(alu, dst, Operand::Reg(scratch)));
                Ok(())
            }
            ExprKind::Call(name, args) => {
                let kind = self.call(line, name, args, dst)?;
                if kind.is_ptr() {
                    return Err(LangError::new(
                        line,
                        format!("`{name}` returns a pointer; assign it to a pointer local"),
                    ));
                }
                Ok(())
            }
            ExprKind::AddrOf(_) => Err(LangError::new(
                line,
                "`&` expressions may only appear as helper-call arguments",
            )),
        }
    }

    fn scalar_or_call(&mut self, line: usize, e: &Expr, dst: Reg) -> Result<(), LangError> {
        if let ExprKind::Call(name, args) = &e.kind {
            self.call(line, name, args, dst)?;
            Ok(())
        } else {
            self.scalar_expr(line, e, dst)
        }
    }

    /// Emits a builtin call, leaving the result in `dst`; reports the
    /// result kind.
    fn call(
        &mut self,
        line: usize,
        name: &str,
        args: &[Expr],
        dst: Reg,
    ) -> Result<VKind, LangError> {
        match name {
            "get_random" => {
                self.expect_args(line, name, args, 0)?;
                self.with_asm(|a| a.call(HelperId::GetPrandomU32));
                self.move_ret(dst);
                Ok(VKind::Scalar(4))
            }
            "ktime_get_ns" => {
                self.expect_args(line, name, args, 0)?;
                self.with_asm(|a| a.call(HelperId::KtimeGetNs));
                self.move_ret(dst);
                Ok(VKind::Scalar(8))
            }
            "cpu_id" => {
                self.expect_args(line, name, args, 0)?;
                self.with_asm(|a| a.call(HelperId::GetSmpProcessorId));
                self.move_ret(dst);
                Ok(VKind::Scalar(4))
            }
            "syr_map_lookup_elem" | "map_lookup" => {
                self.expect_args(line, name, args, 2)?;
                let map = self.map_ref_arg(line, &args[0])?;
                self.key_arg(line, &args[1], Reg::R2)?;
                self.with_asm(|a| a.load_map_fd(Reg::R1, map).call(HelperId::MapLookupElem));
                self.move_ret(dst);
                Ok(VKind::MapVal(8))
            }
            "syr_map_update_elem" | "map_update" => {
                self.expect_args(line, name, args, 3)?;
                let map = self.map_ref_arg(line, &args[0])?;
                // Evaluate the value first (it may contain calls), park it
                // in the value slot, then build the key.
                self.value_arg(line, &args[2])?;
                self.key_arg(line, &args[1], Reg::R2)?;
                let vslot = self.val_slot;
                self.with_asm(|a| {
                    a.load_map_fd(Reg::R1, map)
                        .mov64_reg(Reg::R3, Reg::R10)
                        .add64_imm(Reg::R3, i32::from(vslot))
                        .mov64_imm(Reg::R4, 0)
                        .call(HelperId::MapUpdateElem)
                });
                self.move_ret(dst);
                Ok(VKind::Scalar(8))
            }
            "syr_map_delete_elem" | "map_delete" => {
                self.expect_args(line, name, args, 2)?;
                let map = self.map_ref_arg(line, &args[0])?;
                self.key_arg(line, &args[1], Reg::R2)?;
                self.with_asm(|a| a.load_map_fd(Reg::R1, map).call(HelperId::MapDeleteElem));
                self.move_ret(dst);
                Ok(VKind::Scalar(8))
            }
            "__sync_fetch_and_add" => {
                self.expect_args(line, name, args, 2)?;
                let (reg, kind) = self.resolve_ptr_reg(line, &args[0])?;
                if !matches!(kind, VKind::MapVal(_)) {
                    return Err(LangError::new(
                        line,
                        "__sync_fetch_and_add requires a map value pointer",
                    ));
                }
                self.scalar_expr(line, &args[1], Reg::R0)?;
                self.with_asm(|a| a.atomic_fetch_add_dw(reg, 0, Reg::R0));
                self.move_ret(dst);
                Ok(VKind::Scalar(8))
            }
            "bpf_redirect_map" | "redirect_map" => {
                self.expect_args(line, name, args, 2)?;
                let map = self.map_ref_arg(line, &args[0])?;
                self.scalar_expr(line, &args[1], Reg::R2)?;
                self.with_asm(|a| {
                    a.load_map_fd(Reg::R1, map)
                        .mov64_imm(Reg::R3, 0)
                        .call(HelperId::RedirectMap)
                });
                self.move_ret(dst);
                Ok(VKind::Scalar(8))
            }
            other => Err(LangError::new(line, format!("unknown function `{other}`"))),
        }
    }

    fn move_ret(&mut self, dst: Reg) {
        if dst != Reg::R0 {
            self.with_asm(|a| a.mov64_reg(dst, Reg::R0));
        }
    }

    fn expect_args(
        &self,
        line: usize,
        name: &str,
        args: &[Expr],
        n: usize,
    ) -> Result<(), LangError> {
        if args.len() != n {
            return Err(LangError::new(
                line,
                format!("`{name}` takes {n} argument(s), got {}", args.len()),
            ));
        }
        Ok(())
    }

    fn map_ref_arg(&self, line: usize, e: &Expr) -> Result<MapId, LangError> {
        let name = match &e.kind {
            ExprKind::AddrOf(n) | ExprKind::Ident(n) => n,
            _ => return Err(LangError::new(line, "expected `&map_name`")),
        };
        match self.bindings.get(name) {
            Some(Binding::Map(id)) => Ok(*id),
            _ => Err(LangError::new(line, format!("`{name}` is not a map"))),
        }
    }

    /// Emits the address of a 4-byte key into `key_reg`.
    fn key_arg(&mut self, line: usize, e: &Expr, key_reg: Reg) -> Result<(), LangError> {
        let key_slot = self.key_slot;
        match &e.kind {
            // `&local` — keys are the low 4 bytes of the 8-byte slot.
            ExprKind::AddrOf(name) => match self.bindings.get(name).cloned() {
                Some(Binding::Stack(slot)) => {
                    self.with_asm(|a| {
                        a.mov64_reg(key_reg, Reg::R10)
                            .add64_imm(key_reg, i32::from(slot))
                    });
                    Ok(())
                }
                Some(Binding::Const(k)) => {
                    self.with_asm(|a| {
                        a.st_w(Reg::R10, key_slot, k as i32)
                            .mov64_reg(key_reg, Reg::R10)
                            .add64_imm(key_reg, i32::from(key_slot))
                    });
                    Ok(())
                }
                _ => Err(LangError::new(
                    line,
                    format!("`&{name}` is not addressable as a key"),
                )),
            },
            // A scalar expression used directly as the key value.
            _ => {
                self.scalar_expr(line, e, Reg::R0)?;
                self.with_asm(|a| {
                    a.stx_w(Reg::R10, key_slot, Reg::R0)
                        .mov64_reg(key_reg, Reg::R10)
                        .add64_imm(key_reg, i32::from(key_slot))
                });
                Ok(())
            }
        }
    }

    /// Evaluates a value argument into the reserved value slot.
    fn value_arg(&mut self, line: usize, e: &Expr) -> Result<(), LangError> {
        let vslot = self.val_slot;
        if let ExprKind::AddrOf(name) = &e.kind {
            if let Some(Binding::Stack(slot)) = self.bindings.get(name).cloned() {
                self.with_asm(|a| {
                    a.ldx_dw(Reg::R0, Reg::R10, slot)
                        .stx_dw(Reg::R10, vslot, Reg::R0)
                });
                return Ok(());
            }
        }
        self.scalar_expr(line, e, Reg::R0)?;
        self.with_asm(|a| a.stx_dw(Reg::R10, vslot, Reg::R0));
        Ok(())
    }

    /// Emits `if (cond) goto label` with short-circuit handling.
    fn branch_if_true(&mut self, line: usize, cond: &Expr, label: &str) -> Result<(), LangError> {
        match &cond.kind {
            ExprKind::Binary(BinOp::LAnd, a, b) => {
                let fail = self.fresh_label("and_fail");
                self.branch_if_false(line, a, &fail)?;
                self.branch_if_true(line, b, label)?;
                self.with_asm(|x| x.label(&fail));
                Ok(())
            }
            ExprKind::Binary(BinOp::LOr, a, b) => {
                self.branch_if_true(line, a, label)?;
                self.branch_if_true(line, b, label)?;
                Ok(())
            }
            ExprKind::Unary(UnOp::Not, inner) => self.branch_if_false(line, inner, label),
            ExprKind::Binary(op, a, b) if is_cmp(*op) => self.cmp_branch(line, *op, a, b, label),
            _ => {
                // Truthiness: pointer locals compare against NULL; scalars
                // against zero.
                if let Some((reg, kind)) = self.try_ptr_local(cond) {
                    if kind.is_ptr() {
                        self.with_asm(|x| x.jne_imm(reg, 0, label));
                        return Ok(());
                    }
                }
                self.scalar_expr(line, cond, Reg::R0)?;
                self.with_asm(|x| x.jne_imm(Reg::R0, 0, label));
                Ok(())
            }
        }
    }

    /// Emits `if (!cond) goto label`.
    fn branch_if_false(&mut self, line: usize, cond: &Expr, label: &str) -> Result<(), LangError> {
        match &cond.kind {
            ExprKind::Binary(BinOp::LAnd, a, b) => {
                self.branch_if_false(line, a, label)?;
                self.branch_if_false(line, b, label)?;
                Ok(())
            }
            ExprKind::Binary(BinOp::LOr, a, b) => {
                let ok = self.fresh_label("or_ok");
                self.branch_if_true(line, a, &ok)?;
                self.branch_if_false(line, b, label)?;
                self.with_asm(|x| x.label(&ok));
                Ok(())
            }
            ExprKind::Unary(UnOp::Not, inner) => self.branch_if_true(line, inner, label),
            ExprKind::Binary(op, a, b) if is_cmp(*op) => {
                self.cmp_branch(line, negate_cmp(*op), a, b, label)
            }
            _ => {
                if let Some((reg, kind)) = self.try_ptr_local(cond) {
                    if kind.is_ptr() {
                        self.with_asm(|x| x.jeq_imm(reg, 0, label));
                        return Ok(());
                    }
                }
                self.scalar_expr(line, cond, Reg::R0)?;
                self.with_asm(|x| x.jeq_imm(Reg::R0, 0, label));
                Ok(())
            }
        }
    }

    fn try_ptr_local(&self, e: &Expr) -> Option<(Reg, VKind)> {
        if let ExprKind::Ident(name) = &e.kind {
            if let Some(Binding::Reg(reg, kind)) = self.bindings.get(name) {
                return Some((*reg, kind.clone()));
            }
        }
        None
    }

    /// Emits a comparison branch, handling the pointer-vs-pointer bounds
    /// idiom and the `pkt_end - pkt_start <op> K` strength reduction.
    fn cmp_branch(
        &mut self,
        line: usize,
        op: BinOp,
        a: &Expr,
        b: &Expr,
        label: &str,
    ) -> Result<(), LangError> {
        let cmp = cmp_op(op);

        // `(pkt_end - pkt_start) < K`  ⇒  `pkt_start + K > pkt_end`.
        if let ExprKind::Binary(BinOp::Sub, hi, lo) = &a.kind {
            if self.is_pkt_end(hi) && self.is_pkt_ptr(lo) {
                if let Some(k) = self.const_fold(b) {
                    let flipped = match cmp {
                        // len < K  ⇔  start + K > end.
                        CmpOp::Lt => CmpOp::Gt,
                        // len <= K ⇔  start + K >= end.
                        CmpOp::Le => CmpOp::Ge,
                        // len > K  ⇔  start + K < end.
                        CmpOp::Gt => CmpOp::Lt,
                        // len >= K ⇔  start + K <= end.
                        CmpOp::Ge => CmpOp::Le,
                        other => other,
                    };
                    let kind = self.ptr_expr(line, lo, Reg::R3)?;
                    debug_assert!(matches!(kind, VKind::PktPtr | VKind::Struct(_)));
                    self.ptr_expr(line, hi, Reg::R4)?;
                    self.with_asm(|x| {
                        x.add64_imm(Reg::R3, k as i32).branch(
                            flipped,
                            Reg::R3,
                            Operand::Reg(Reg::R4),
                            label,
                        )
                    });
                    return Ok(());
                }
            }
        }

        // Pointer comparisons (bounds checks, null checks against literals).
        let a_ptr = self.expr_is_ptr(a);
        let b_ptr = self.expr_is_ptr(b);
        if a_ptr && b_ptr {
            self.ptr_expr(line, a, Reg::R3)?;
            self.ptr_expr(line, b, Reg::R4)?;
            self.with_asm(|x| x.branch(cmp, Reg::R3, Operand::Reg(Reg::R4), label));
            return Ok(());
        }
        if a_ptr {
            // Pointer vs constant: only NULL comparisons make sense.
            let k = self.const_fold(b).ok_or_else(|| {
                LangError::new(line, "pointers can only be compared to NULL or pointers")
            })?;
            let (reg, _) = self.resolve_ptr_reg(line, a)?;
            self.with_asm(|x| x.branch(cmp, reg, Operand::Imm(k as i32), label));
            return Ok(());
        }

        // Scalar comparison.
        if let Some(k) = self.const_fold(b) {
            self.scalar_expr(line, a, Reg::R3)?;
            if i32::try_from(k).is_ok() {
                self.with_asm(|x| x.branch(cmp, Reg::R3, Operand::Imm(k as i32), label));
            } else {
                self.with_asm(|x| {
                    x.load_imm64(Reg::R4, k)
                        .branch(cmp, Reg::R3, Operand::Reg(Reg::R4), label)
                });
            }
            return Ok(());
        }
        if self.contains_call(b) || self.contains_bool(b) {
            // Evaluating `b` would clobber the left operand parked in
            // `r3`: calls trash `r1`–`r5`, and a nested comparison's
            // boolean materialization reuses `r3`/`r4` (found by
            // syrup-fuzz's differential oracle). Spill across it.
            self.scalar_expr(line, a, Reg::R0)?;
            let slot = self.alloc_slot();
            self.with_asm(|x| x.stx_dw(Reg::R10, slot, Reg::R0));
            self.scalar_expr(line, b, Reg::R0)?;
            self.with_asm(|x| {
                x.mov64_reg(Reg::R4, Reg::R0)
                    .ldx_dw(Reg::R3, Reg::R10, slot)
                    .branch(cmp, Reg::R3, Operand::Reg(Reg::R4), label)
            });
            return Ok(());
        }
        self.scalar_expr(line, a, Reg::R3)?;
        self.scalar_expr(line, b, Reg::R4)?;
        self.with_asm(|x| x.branch(cmp, Reg::R3, Operand::Reg(Reg::R4), label));
        Ok(())
    }

    fn is_pkt_ptr(&self, e: &Expr) -> bool {
        match &e.kind {
            ExprKind::Ident(name) => matches!(
                self.bindings.get(name),
                Some(Binding::Reg(_, VKind::PktPtr | VKind::Struct(_)))
                    | Some(Binding::PktDerived(..))
            ),
            ExprKind::Cast(_, inner) => self.is_pkt_ptr(inner),
            ExprKind::Binary(BinOp::Add | BinOp::Sub, a, _) => self.is_pkt_ptr(a),
            _ => false,
        }
    }

    fn is_pkt_end(&self, e: &Expr) -> bool {
        match &e.kind {
            ExprKind::Ident(name) => {
                matches!(
                    self.bindings.get(name),
                    Some(Binding::Reg(_, VKind::PktEnd))
                )
            }
            _ => false,
        }
    }

    fn expr_is_ptr(&self, e: &Expr) -> bool {
        match &e.kind {
            ExprKind::Ident(name) => match self.bindings.get(name) {
                Some(Binding::Reg(_, k)) => k.is_ptr(),
                Some(Binding::PktDerived(..)) => true,
                _ => false,
            },
            ExprKind::Cast(ty, inner) => ty.is_ptr() && self.expr_is_ptr(inner),
            ExprKind::Binary(BinOp::Add | BinOp::Sub, a, b) => {
                self.expr_is_ptr(a) && self.const_fold(b).is_some()
                    || self.expr_is_ptr(a) && !self.expr_is_ptr(b)
            }
            _ => false,
        }
    }
}

fn is_cmp(op: BinOp) -> bool {
    matches!(
        op,
        BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
    )
}

fn cmp_op(op: BinOp) -> CmpOp {
    match op {
        BinOp::Eq => CmpOp::Eq,
        BinOp::Ne => CmpOp::Ne,
        BinOp::Lt => CmpOp::Lt,
        BinOp::Le => CmpOp::Le,
        BinOp::Gt => CmpOp::Gt,
        BinOp::Ge => CmpOp::Ge,
        _ => unreachable!("not a comparison"),
    }
}

fn negate_cmp(op: BinOp) -> BinOp {
    match op {
        BinOp::Eq => BinOp::Ne,
        BinOp::Ne => BinOp::Eq,
        BinOp::Lt => BinOp::Ge,
        BinOp::Le => BinOp::Gt,
        BinOp::Gt => BinOp::Le,
        BinOp::Ge => BinOp::Lt,
        _ => unreachable!("not a comparison"),
    }
}

fn mem_size(width: u32) -> MemSize {
    match width {
        1 => MemSize::B,
        2 => MemSize::H,
        4 => MemSize::W,
        _ => MemSize::DW,
    }
}

/// Pointee width of a deref target, derived from casts.
fn deref_width(e: &Expr) -> Option<u32> {
    match &e.kind {
        ExprKind::Cast(Type::Ptr(inner), _) => Some(inner.size()),
        ExprKind::Cast(Type::VoidPtr, _) => Some(1),
        _ => None,
    }
}

fn next_scratch(line: usize, after: Reg) -> Result<Reg, LangError> {
    let idx = after.index() + 1;
    if idx >= SCRATCH.len() {
        return Err(LangError::new(
            line,
            "expression too complex (scratch registers exhausted)",
        ));
    }
    Ok(SCRATCH[idx])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compile, CompileOptions};
    use syrup_ebpf::vm::{PacketCtx, RunEnv};
    use syrup_ebpf::{verify, Vm};

    fn build(src: &str, opts: CompileOptions) -> (Vm, syrup_ebpf::maps::ProgSlot, CompiledPolicy) {
        let maps = MapRegistry::new();
        let policy = compile(src, &opts, &maps).expect("compile");
        verify(&policy.program, &maps)
            .unwrap_or_else(|e| panic!("verify: {e}\n{}", policy.program.disasm()));
        let mut vm = Vm::new(maps);
        let slot = vm.load_unverified(policy.program.clone());
        (vm, slot, policy)
    }

    fn run(vm: &Vm, slot: syrup_ebpf::maps::ProgSlot, pkt: &mut [u8]) -> u64 {
        let mut ctx = PacketCtx::new(pkt);
        vm.run(slot, &mut ctx, &mut RunEnv::default())
            .expect("run")
            .ret
    }

    #[test]
    fn compiles_constant_return() {
        let (vm, slot, _) = build(
            "uint32_t schedule(void *pkt_start, void *pkt_end) { return 7; }",
            CompileOptions::new(),
        );
        assert_eq!(run(&vm, slot, &mut [0u8; 16]), 7);
    }

    #[test]
    fn ranked_return_encodes_rank_in_high_bits() {
        let (vm, slot, _) = build(
            "uint32_t schedule(void *pkt_start, void *pkt_end) { return (3, 42); }",
            CompileOptions::new(),
        );
        let ret = run(&vm, slot, &mut [0u8; 16]);
        assert_eq!(ret, (42u64 << 32) | 3);
        assert_eq!(syrup_ebpf::ret::executor_of(ret), 3);
        assert_eq!(syrup_ebpf::ret::rank_of(ret), 42);
    }

    #[test]
    fn ranked_return_truncates_both_halves_to_u32() {
        // q and rank are uint32_t like the classic return value: 64-bit
        // expressions truncate before encoding.
        let src = "
            uint32_t schedule(void *pkt_start, void *pkt_end) {
                uint64_t big = 4294967296 + 5;   /* 2^32 + 5 */
                return (big, big + 1);
            }";
        let (vm, slot, _) = build(src, CompileOptions::new());
        let ret = run(&vm, slot, &mut [0u8; 16]);
        assert_eq!(syrup_ebpf::ret::executor_of(ret), 5);
        assert_eq!(syrup_ebpf::ret::rank_of(ret), 6);
    }

    #[test]
    fn ranked_return_survives_helper_calls_in_value() {
        // The rank is spilled to the stack across the value evaluation;
        // a map-helper call in the value expression must not clobber it.
        let src = "
            SYRUP_MAP(counts, ARRAY, 4);
            uint32_t schedule(void *pkt_start, void *pkt_end) {
                uint32_t zero = 0;
                uint64_t *c = syr_map_lookup_elem(&counts, &zero);
                if (!c)
                    return PASS;
                *c += 1;
                return (*c % 4, 1000 + *c);
            }";
        let (vm, slot, _) = build(src, CompileOptions::new());
        let ret = run(&vm, slot, &mut [0u8; 16]);
        assert_eq!(syrup_ebpf::ret::executor_of(ret), 1);
        assert_eq!(syrup_ebpf::ret::rank_of(ret), 1001);
    }

    #[test]
    fn parenthesized_plain_return_still_works() {
        let (vm, slot, _) = build(
            "uint32_t schedule(void *pkt_start, void *pkt_end) { return (4) + 1; }",
            CompileOptions::new(),
        );
        assert_eq!(run(&vm, slot, &mut [0u8; 16]), 5);
    }

    #[test]
    fn round_robin_policy_from_paper() {
        // Figure 5a, verbatim shape.
        let src = "
            uint32_t idx = 0;
            uint32_t schedule(void *pkt_start, void *pkt_end) {
                idx++;
                return idx % NUM_THREADS;
            }";
        let (vm, slot, _) = build(src, CompileOptions::new().define("NUM_THREADS", 6));
        let mut pkt = [0u8; 16];
        let picks: Vec<u64> = (0..8).map(|_| run(&vm, slot, &mut pkt)).collect();
        assert_eq!(picks, vec![1, 2, 3, 4, 5, 0, 1, 2]);
    }

    #[test]
    fn sita_policy_from_paper() {
        // Figure 5d: bounds check, peek type at offset 8, split SCANs to
        // socket 0, round-robin GETs over the rest.
        let src = "
            uint32_t idx = 0;
            uint32_t schedule(void *pkt_start, void *pkt_end) {
                if (pkt_end - pkt_start < 16)
                    return PASS;
                uint64_t type = *(uint64_t *)(pkt_start + 8);
                if (type == SCAN)
                    return 0;
                idx++;
                return (idx % (NUM_THREADS - 1)) + 1;
            }";
        let opts = CompileOptions::new()
            .define("NUM_THREADS", 6)
            .define("SCAN", 2);
        let (vm, slot, _) = build(src, opts);

        // SCAN packet → socket 0.
        let mut pkt = [0u8; 16];
        pkt[8] = 2;
        assert_eq!(run(&vm, slot, &mut pkt), 0);

        // GET packets round-robin over 1..=5.
        let mut pkt = [0u8; 16];
        pkt[8] = 1;
        let picks: Vec<u64> = (0..6).map(|_| run(&vm, slot, &mut pkt)).collect();
        assert_eq!(picks, vec![2, 3, 4, 5, 1, 2]);

        // Short packet → PASS.
        let mut small = [0u8; 8];
        assert_eq!(run(&vm, slot, &mut small), ret::PASS);
    }

    #[test]
    fn scan_avoid_policy_from_paper() {
        // Figure 5c: probe random sockets, skip ones serving a SCAN.
        let src = "
            SYRUP_MAP(scan_map, ARRAY, 64);
            uint32_t schedule(void *pkt_start, void *pkt_end) {
                uint32_t cur_idx = 0;
                for (int i = 0; i < NUM_THREADS; i++) {
                    cur_idx = get_random() % NUM_THREADS;
                    uint64_t *scan = syr_map_lookup_elem(&scan_map, &cur_idx);
                    if (!scan)
                        return PASS;
                    if (*scan == GET)
                        break;
                }
                return cur_idx;
            }";
        let opts = CompileOptions::new()
            .define("NUM_THREADS", 6)
            .define("GET", 1);
        let maps = MapRegistry::new();
        let policy = compile(src, &opts, &maps).expect("compile");
        verify(&policy.program, &maps)
            .unwrap_or_else(|e| panic!("verify: {e}\n{}", policy.program.disasm()));
        let scan_map = maps.get(policy.created_maps["scan_map"]).unwrap();
        // Mark sockets 0..5 as GET except 3 (SCAN).
        for i in 0..6u32 {
            scan_map.update_u64(i, if i == 3 { 2 } else { 1 }).unwrap();
        }
        let mut vm = Vm::new(maps);
        let slot = vm.load_unverified(policy.program.clone());
        let mut pkt = [0u8; 16];
        let mut env = RunEnv {
            prandom_state: 42,
            ..RunEnv::default()
        };
        for _ in 0..64 {
            let mut ctx = PacketCtx::new(&mut pkt);
            let pick = vm.run(slot, &mut ctx, &mut env).unwrap().ret;
            assert!(pick < 6);
            assert_ne!(pick, 3, "SCAN-serving socket must be avoided");
        }
    }

    #[test]
    fn token_policy_from_paper() {
        // §3.4: parse user id, consume a token or drop.
        let src = "
            SYRUP_MAP(token_map, HASH, 1024);
            struct app_hdr {
                uint32_t user_id;
            };
            uint32_t schedule(void *pkt_start, void *pkt_end) {
                if (pkt_end - pkt_start < 12)
                    return DROP;
                struct app_hdr *hdr = (struct app_hdr *)(pkt_start + 8);
                uint32_t user_id = hdr->user_id;
                uint64_t *tokens = syr_map_lookup_elem(&token_map, &user_id);
                if (!tokens)
                    return DROP;
                if (*tokens == 0)
                    return DROP;
                __sync_fetch_and_add(tokens, -1);
                return PASS;
            }";
        let maps = MapRegistry::new();
        let policy = compile(src, &CompileOptions::new(), &maps).expect("compile");
        verify(&policy.program, &maps)
            .unwrap_or_else(|e| panic!("verify: {e}\n{}", policy.program.disasm()));
        let token_map = maps.get(policy.created_maps["token_map"]).unwrap();
        token_map.update_u64(5, 2).unwrap(); // user 5 has 2 tokens
        let mut vm = Vm::new(maps);
        let slot = vm.load_unverified(policy.program.clone());
        let mut pkt = [0u8; 12];
        pkt[8..12].copy_from_slice(&5u32.to_le_bytes());
        assert_eq!(run(&vm, slot, &mut pkt), ret::PASS);
        assert_eq!(run(&vm, slot, &mut pkt), ret::PASS);
        assert_eq!(run(&vm, slot, &mut pkt), ret::DROP, "tokens exhausted");
        // Unknown user drops.
        let mut other = [0u8; 12];
        other[8..12].copy_from_slice(&9u32.to_le_bytes());
        assert_eq!(run(&vm, slot, &mut other), ret::DROP);
        // Userspace replenishes (Figure: generate_tokens).
        let token_map = vm.maps().get(policy.created_maps["token_map"]).unwrap();
        token_map.update_u64(5, 1).unwrap();
        assert_eq!(run(&vm, slot, &mut pkt), ret::PASS);
    }

    #[test]
    fn hash_policy_with_external_executor_count() {
        // §3.3's hash example: read a field, modulo a map-provided count.
        let src = "
            uint32_t schedule(void *pkt_start, void *pkt_end) {
                if (pkt_end - pkt_start < 4)
                    return PASS;
                uint32_t hash = *(uint32_t *)(pkt_start + 0);
                uint32_t zero = 0;
                uint64_t *num_cores = syr_map_lookup_elem(&core_map, &zero);
                if (!num_cores)
                    return PASS;
                return hash % *num_cores;
            }";
        let maps = MapRegistry::new();
        let core_map_id = maps.create(MapDef::u64_array(1));
        maps.get(core_map_id).unwrap().update_u64(0, 4).unwrap();
        let opts = CompileOptions::new().bind_map("core_map", core_map_id);
        let policy = compile(src, &opts, &maps).expect("compile");
        verify(&policy.program, &maps)
            .unwrap_or_else(|e| panic!("verify: {e}\n{}", policy.program.disasm()));
        let mut vm = Vm::new(maps);
        let slot = vm.load_unverified(policy.program);
        let mut pkt = [0u8; 8];
        pkt[..4].copy_from_slice(&10u32.to_le_bytes());
        assert_eq!(run(&vm, slot, &mut pkt), 10 % 4);
    }

    #[test]
    fn if_else_chains_and_logic_ops() {
        let src = "
            uint32_t schedule(void *pkt_start, void *pkt_end) {
                uint32_t x = 5;
                if (x > 3 && x < 10) {
                    return 1;
                } else if (x == 3 || x == 2) {
                    return 2;
                } else {
                    return 3;
                }
            }";
        let (vm, slot, _) = build(src, CompileOptions::new());
        assert_eq!(run(&vm, slot, &mut [0u8; 4]), 1);
    }

    #[test]
    fn break_exits_unrolled_loop() {
        let src = "
            uint32_t schedule(void *pkt_start, void *pkt_end) {
                uint32_t acc = 0;
                for (int i = 0; i < 10; i++) {
                    acc += i;
                    if (i == 3)
                        break;
                }
                return acc;
            }";
        let (vm, slot, _) = build(src, CompileOptions::new());
        assert_eq!(run(&vm, slot, &mut [0u8; 4]), 1 + 2 + 3);
    }

    #[test]
    fn continue_skips_iteration() {
        let src = "
            uint32_t schedule(void *pkt_start, void *pkt_end) {
                uint32_t acc = 0;
                for (int i = 0; i < 5; i++) {
                    if (i == 2)
                        continue;
                    acc += i;
                }
                return acc;
            }";
        let (vm, slot, _) = build(src, CompileOptions::new());
        assert_eq!(run(&vm, slot, &mut [0u8; 4]), 1 + 3 + 4);
    }

    #[test]
    fn globals_persist_across_invocations_and_seed_from_init() {
        let src = "
            uint64_t counter = 100;
            uint32_t schedule(void *pkt_start, void *pkt_end) {
                counter += 2;
                return counter;
            }";
        let (vm, slot, policy) = build(src, CompileOptions::new());
        assert_eq!(run(&vm, slot, &mut [0u8; 4]), 102);
        assert_eq!(run(&vm, slot, &mut [0u8; 4]), 104);
        // The globals map is observable by userspace (cross-layer!).
        let gmap = vm.maps().get(policy.globals_map.unwrap()).unwrap();
        assert_eq!(gmap.lookup_u64(0).unwrap(), Some(104));
    }

    #[test]
    fn rejects_unknown_variable_and_function() {
        let maps = MapRegistry::new();
        let err = compile(
            "uint32_t schedule(void *a, void *b) { return nope; }",
            &CompileOptions::new(),
            &maps,
        )
        .unwrap_err();
        assert!(err.msg.contains("unknown variable"));

        let err = compile(
            "uint32_t schedule(void *a, void *b) { return nope(); }",
            &CompileOptions::new(),
            &maps,
        )
        .unwrap_err();
        assert!(err.msg.contains("unknown function"));
    }

    #[test]
    fn rejects_unbounded_loop_and_too_many_ptr_locals() {
        let maps = MapRegistry::new();
        let err = compile(
            "uint32_t schedule(void *a, void *b) {
                 for (int i = 0; i < N; i++) { }
                 return 0;
             }",
            &CompileOptions::new(),
            &maps,
        )
        .unwrap_err();
        assert!(err.msg.contains("constant"));

        let err = compile(
            "SYRUP_MAP(m, ARRAY, 4);
             uint32_t schedule(void *a, void *b) {
                 uint32_t k = 0;
                 uint64_t *p1 = syr_map_lookup_elem(&m, &k);
                 uint64_t *p2 = syr_map_lookup_elem(&m, &k);
                 uint64_t *p3 = syr_map_lookup_elem(&m, &k);
                 return 0;
             }",
            &CompileOptions::new(),
            &maps,
        )
        .unwrap_err();
        assert!(err.msg.contains("pointer locals"));
    }

    #[test]
    fn generated_code_fails_verification_without_bounds_check() {
        // The compiler emits what the user wrote; the *verifier* is the
        // safety net, exactly as in the real stack.
        let maps = MapRegistry::new();
        let policy = compile(
            "uint32_t schedule(void *pkt_start, void *pkt_end) {
                 return *(uint32_t *)(pkt_start + 0);
             }",
            &CompileOptions::new(),
            &maps,
        )
        .expect("compiles fine");
        assert!(verify(&policy.program, &maps).is_err());
    }

    #[test]
    fn update_and_delete_helpers() {
        let src = "
            SYRUP_MAP(state, HASH, 16);
            uint32_t schedule(void *pkt_start, void *pkt_end) {
                uint32_t k = 3;
                syr_map_update_elem(&state, &k, 77);
                return 0;
            }";
        let (vm, slot, policy) = build(src, CompileOptions::new());
        run(&vm, slot, &mut [0u8; 4]);
        let m = vm.maps().get(policy.created_maps["state"]).unwrap();
        assert_eq!(m.lookup_u64(3).unwrap(), Some(77));
    }
}
