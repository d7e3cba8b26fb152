//! A text-format assembler, round-tripping with [`crate::Program::disasm`].
//!
//! Useful for tests, for storing policies as `.s` files, and for poking at
//! the verifier from the `syrupctl` CLI. The syntax is the disassembler's
//! output plus named labels:
//!
//! ```text
//! ; comments run to end of line
//!     mov r6, 0
//! top:
//!     add r6, 1
//!     jlt r6, 6, top
//!     mov r0, 0
//!     exit
//! ```
//!
//! Branch targets may be written as labels (`jeq r0, 0, out`) or as the
//! disassembler's relative offsets (`jeq r0, 0, +2`).

use std::collections::HashMap;

use crate::helpers::HelperId;
use crate::insn::{AluOp, CmpOp, Insn, MemSize, Operand, Reg, Width};
use crate::maps::MapId;
use crate::Program;

/// A parse error with its 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmTextError {
    /// Source line.
    pub line: usize,
    /// Message.
    pub msg: String,
}

impl std::fmt::Display for AsmTextError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for AsmTextError {}

/// Assembles text into a [`Program`].
pub fn assemble(name: &str, source: &str) -> Result<Program, AsmTextError> {
    // First pass: collect labels and raw instruction lines.
    let mut lines: Vec<(usize, String)> = Vec::new();
    let mut labels: HashMap<String, usize> = HashMap::new();
    for (lineno, raw) in source.lines().enumerate() {
        let lineno = lineno + 1;
        let mut text = raw;
        if let Some(i) = text.find(';') {
            text = &text[..i];
        }
        let text = text.trim();
        if text.is_empty() {
            continue;
        }
        if let Some(label) = text.strip_suffix(':') {
            let label = label.trim();
            if !is_ident(label) {
                return Err(AsmTextError {
                    line: lineno,
                    msg: format!("bad label `{label}`"),
                });
            }
            if labels.insert(label.to_string(), lines.len()).is_some() {
                return Err(AsmTextError {
                    line: lineno,
                    msg: format!("duplicate label `{label}`"),
                });
            }
            continue;
        }
        lines.push((lineno, text.to_string()));
    }

    // Second pass: parse each instruction with label resolution.
    let mut insns = Vec::with_capacity(lines.len());
    for (pc, (lineno, text)) in lines.iter().enumerate() {
        let insn =
            parse_insn(text, pc, &labels).map_err(|msg| AsmTextError { line: *lineno, msg })?;
        insns.push(insn);
    }
    Ok(Program::new(name, insns))
}

fn is_ident(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

fn parse_reg(tok: &str) -> Result<Reg, String> {
    let tok = tok.trim();
    let n = tok
        .strip_prefix('r')
        .and_then(|s| s.parse::<u8>().ok())
        .ok_or_else(|| format!("expected register, found `{tok}`"))?;
    if n > 10 {
        return Err(format!("register r{n} does not exist"));
    }
    Ok(Reg::new(n))
}

/// One optional sign, then decimal digits or `0x` and hex digits. The
/// sign folds into the magnitude without overflow, so `i64::MIN` reads
/// back as the disassembler prints it.
fn parse_imm(tok: &str) -> Result<i64, String> {
    let tok = tok.trim();
    let bad = || format!("bad immediate `{tok}`");
    let (neg, body) = match tok.strip_prefix('-') {
        Some(b) => (true, b),
        None => (false, tok.strip_prefix('+').unwrap_or(tok)),
    };
    let (digits, radix) = match body.strip_prefix("0x").or_else(|| body.strip_prefix("0X")) {
        Some(hex) => (hex, 16),
        None => (body, 10),
    };
    // `from_str_radix` would take a second sign of its own.
    if !digits.chars().all(|c| c.is_digit(radix)) {
        return Err(bad());
    }
    let magnitude = u64::from_str_radix(digits, radix).map_err(|_| bad())?;
    let v = if neg {
        0i64.checked_sub_unsigned(magnitude)
    } else {
        i64::try_from(magnitude).ok()
    };
    v.ok_or_else(bad)
}

fn parse_operand(tok: &str) -> Result<Operand, String> {
    let tok = tok.trim();
    if tok.starts_with('r') && parse_reg(tok).is_ok() {
        Ok(Operand::Reg(parse_reg(tok)?))
    } else {
        let v = parse_imm(tok)?;
        i32::try_from(v)
            .map(Operand::Imm)
            .map_err(|_| format!("immediate `{tok}` exceeds 32 bits"))
    }
}

/// Parses `[rX+off]` or `[rX-off]`.
fn parse_mem(tok: &str) -> Result<(Reg, i16), String> {
    let tok = tok.trim();
    let inner = tok
        .strip_prefix('[')
        .and_then(|s| s.strip_suffix(']'))
        .ok_or_else(|| format!("expected `[reg+off]`, found `{tok}`"))?;
    let split = inner
        .char_indices()
        .skip(1)
        .find(|&(_, c)| c == '+' || c == '-')
        .map(|(i, _)| i);
    match split {
        Some(i) => {
            let reg = parse_reg(&inner[..i])?;
            let off = parse_imm(&inner[i..])?;
            let off = i16::try_from(off).map_err(|_| format!("offset `{inner}` too large"))?;
            Ok((reg, off))
        }
        None => Ok((parse_reg(inner)?, 0)),
    }
}

fn parse_target(tok: &str, pc: usize, labels: &HashMap<String, usize>) -> Result<i16, String> {
    let tok = tok.trim();
    if tok.starts_with('+')
        || tok.starts_with('-')
        || tok.chars().next().is_some_and(|c| c.is_ascii_digit())
    {
        let v = parse_imm(tok)?;
        return i16::try_from(v).map_err(|_| format!("offset `{tok}` too large"));
    }
    let dest = *labels
        .get(tok)
        .ok_or_else(|| format!("undefined label `{tok}`"))?;
    let off = dest as i64 - (pc as i64 + 1);
    i16::try_from(off).map_err(|_| format!("branch to `{tok}` overflows i16"))
}

fn parse_helper(tok: &str) -> Result<HelperId, String> {
    let t = tok.trim().to_lowercase();
    // Accept the Display name and the `Debug` name the disassembler emits.
    Ok(match t.as_str() {
        "map_lookup_elem" | "maplookupelem" => HelperId::MapLookupElem,
        "map_update_elem" | "mapupdateelem" => HelperId::MapUpdateElem,
        "map_delete_elem" | "mapdeleteelem" => HelperId::MapDeleteElem,
        "get_prandom_u32" | "getprandomu32" => HelperId::GetPrandomU32,
        "ktime_get_ns" | "ktimegetns" => HelperId::KtimeGetNs,
        "redirect_map" | "redirectmap" => HelperId::RedirectMap,
        "tail_call" | "tailcall" => HelperId::TailCall,
        "get_smp_processor_id" | "getsmpprocessorid" => HelperId::GetSmpProcessorId,
        other => return Err(format!("unknown helper `{other}`")),
    })
}

fn alu_of(name: &str) -> Option<AluOp> {
    Some(match name {
        "add" => AluOp::Add,
        "sub" => AluOp::Sub,
        "mul" => AluOp::Mul,
        "div" => AluOp::Div,
        "mod" => AluOp::Mod,
        "and" => AluOp::And,
        "or" => AluOp::Or,
        "xor" => AluOp::Xor,
        "lsh" => AluOp::Lsh,
        "rsh" => AluOp::Rsh,
        "arsh" => AluOp::Arsh,
        "mov" => AluOp::Mov,
        _ => return None,
    })
}

fn cmp_of(name: &str) -> Option<CmpOp> {
    Some(match name {
        "eq" => CmpOp::Eq,
        "ne" => CmpOp::Ne,
        "gt" => CmpOp::Gt,
        "ge" => CmpOp::Ge,
        "lt" => CmpOp::Lt,
        "le" => CmpOp::Le,
        "sgt" => CmpOp::Sgt,
        "sge" => CmpOp::Sge,
        "slt" => CmpOp::Slt,
        "sle" => CmpOp::Sle,
        "set" => CmpOp::Set,
        _ => return None,
    })
}

fn size_of(tag: &str) -> Option<MemSize> {
    Some(match tag {
        "b" => MemSize::B,
        "h" => MemSize::H,
        "w" => MemSize::W,
        "dw" => MemSize::DW,
        _ => None?,
    })
}

fn parse_insn(text: &str, pc: usize, labels: &HashMap<String, usize>) -> Result<Insn, String> {
    let (mnemonic, rest) = match text.find(char::is_whitespace) {
        Some(i) => (&text[..i], text[i..].trim()),
        None => (text, ""),
    };
    let args: Vec<&str> = if rest.is_empty() {
        Vec::new()
    } else {
        rest.split(',').map(str::trim).collect()
    };
    let nargs = |n: usize| -> Result<(), String> {
        if args.len() != n {
            Err(format!(
                "`{mnemonic}` takes {n} operand(s), got {}",
                args.len()
            ))
        } else {
            Ok(())
        }
    };

    // exit / ja / call / lddw / ldmapfd first.
    match mnemonic {
        "exit" => return Ok(Insn::Exit),
        "ja" => {
            nargs(1)?;
            return Ok(Insn::Jump {
                off: parse_target(args[0], pc, labels)?,
            });
        }
        "call" => {
            nargs(1)?;
            return Ok(Insn::Call {
                helper: parse_helper(args[0])?,
            });
        }
        "lddw" => {
            nargs(2)?;
            return Ok(Insn::LoadImm64 {
                dst: parse_reg(args[0])?,
                imm: parse_imm(args[1])?,
            });
        }
        "ldmapfd" => {
            nargs(2)?;
            let id = args[1]
                .trim()
                .strip_prefix("map#")
                .and_then(|s| s.parse::<u32>().ok())
                .ok_or_else(|| format!("expected `map#N`, found `{}`", args[1]))?;
            return Ok(Insn::LoadMapFd {
                dst: parse_reg(args[0])?,
                map: MapId(id),
            });
        }
        "neg" | "neg32" => {
            nargs(1)?;
            let w = if mnemonic.ends_with("32") {
                Width::W32
            } else {
                Width::W64
            };
            return Ok(Insn::Neg {
                w,
                dst: parse_reg(args[0])?,
            });
        }
        "be" | "le" if args.len() == 2 => {
            let bits: u8 = args[1]
                .parse()
                .map_err(|_| format!("bad endian width `{}`", args[1]))?;
            return Ok(Insn::Endian {
                dst: parse_reg(args[0])?,
                to_be: mnemonic == "be",
                bits,
            });
        }
        _ => {}
    }

    // Memory: ldx{sz} / stx{sz} / st{sz} / aadd / afadd.
    if let Some(sz) = mnemonic.strip_prefix("ldx").and_then(size_of) {
        nargs(2)?;
        let dst = parse_reg(args[0])?;
        let (base, off) = parse_mem(args[1])?;
        return Ok(Insn::LoadMem {
            size: sz,
            dst,
            base,
            off,
        });
    }
    if let Some(sz) = mnemonic.strip_prefix("stx").and_then(size_of) {
        nargs(2)?;
        let (base, off) = parse_mem(args[0])?;
        let src = parse_reg(args[1])?;
        return Ok(Insn::StoreMem {
            size: sz,
            base,
            off,
            src,
        });
    }
    if let Some(sz) = mnemonic.strip_prefix("st").and_then(size_of) {
        nargs(2)?;
        let (base, off) = parse_mem(args[0])?;
        let imm = parse_imm(args[1])?;
        let imm = i32::try_from(imm).map_err(|_| "store immediate exceeds 32 bits".to_string())?;
        return Ok(Insn::StoreImm {
            size: sz,
            base,
            off,
            imm,
        });
    }
    for (prefix, fetch) in [("afadd", true), ("aadd", false)] {
        if let Some(sz) = mnemonic.strip_prefix(prefix).and_then(size_of) {
            nargs(2)?;
            let (base, off) = parse_mem(args[0])?;
            let src = parse_reg(args[1])?;
            return Ok(Insn::AtomicAdd {
                size: sz,
                base,
                off,
                src,
                fetch,
            });
        }
    }

    // Branches: j{cmp}[32].
    if let Some(body) = mnemonic.strip_prefix('j') {
        let (body, w) = match body.strip_suffix("32") {
            Some(b) => (b, Width::W32),
            None => (body, Width::W64),
        };
        if let Some(op) = cmp_of(body) {
            nargs(3)?;
            return Ok(Insn::Branch {
                op,
                w,
                lhs: parse_reg(args[0])?,
                rhs: parse_operand(args[1])?,
                off: parse_target(args[2], pc, labels)?,
            });
        }
    }

    // ALU: {op}[32].
    let (body, w) = match mnemonic.strip_suffix("32") {
        Some(b) => (b, Width::W32),
        None => (mnemonic, Width::W64),
    };
    if let Some(op) = alu_of(body) {
        nargs(2)?;
        return Ok(Insn::Alu {
            w,
            op,
            dst: parse_reg(args[0])?,
            src: parse_operand(args[1])?,
        });
    }

    Err(format!("unknown mnemonic `{mnemonic}`"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maps::MapRegistry;
    use crate::vm::{PacketCtx, RunEnv, Vm};

    #[test]
    fn assembles_and_runs_a_counting_loop() {
        let prog = assemble(
            "loop",
            "
            ; count to six
                mov r6, 0
            top:
                add r6, 1
                jlt r6, 6, top
                mov r0, r6
                exit
            ",
        )
        .unwrap();
        let mut vm = Vm::new(MapRegistry::new());
        let slot = vm.load(prog).expect("verifies");
        let mut pkt = [0u8; 4];
        let mut ctx = PacketCtx::new(&mut pkt);
        assert_eq!(
            vm.run(slot, &mut ctx, &mut RunEnv::default()).unwrap().ret,
            6
        );
    }

    #[test]
    fn round_trips_with_the_disassembler() {
        let prog = assemble(
            "rt",
            "
                ldxdw r2, [r1+8]
                ldxdw r1, [r1+0]
                mov r3, r1
                add r3, 2
                jgt r3, r2, +2
                ldxh r0, [r1+0]
                exit
                mov r0, 0
                exit
            ",
        )
        .unwrap();
        // Disassemble and reassemble: identical instruction stream.
        let again = assemble("rt2", &listing(&prog)).unwrap();
        assert_eq!(prog.insns, again.insns);
    }

    /// `prog`'s disassembly without the instruction indices: assembler
    /// input.
    fn listing(prog: &Program) -> String {
        prog.disasm()
            .lines()
            .map(|l| l.split_once(':').map_or("", |x| x.1).trim())
            .collect::<Vec<_>>()
            .join("\n")
    }

    #[test]
    fn parses_memory_and_atomic_forms() {
        let prog = assemble(
            "mem",
            "
                stdw [r10-8], 5
                ldxdw r0, [r10-8]
                mov r1, 2
                aadddw [r10-8], r1
                afadddw [r10-8], r1
                mov r0, r1
                exit
            ",
        )
        .unwrap();
        assert_eq!(prog.len(), 7);
        assert!(matches!(
            prog.insns[3],
            Insn::AtomicAdd { fetch: false, .. }
        ));
        assert!(matches!(prog.insns[4], Insn::AtomicAdd { fetch: true, .. }));
    }

    #[test]
    fn parses_calls_and_map_fds() {
        let prog = assemble(
            "call",
            "
                ldmapfd r1, map#3
                stw [r10-4], 0
                mov r2, r10
                add r2, -4
                call map_lookup_elem
                jeq r0, 0, miss
                ldxdw r0, [r0+0]
                exit
            miss:
                mov r0, 0
                exit
            ",
        )
        .unwrap();
        assert!(matches!(
            prog.insns[0],
            Insn::LoadMapFd { map: MapId(3), .. }
        ));
        assert!(matches!(
            prog.insns[4],
            Insn::Call {
                helper: HelperId::MapLookupElem
            }
        ));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = assemble("bad", "mov r0, 0\nbogus r1\nexit").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.msg.contains("bogus"));

        let err = assemble("bad2", "jeq r0, 0, nowhere\nexit").unwrap_err();
        assert!(err.msg.contains("undefined label"));

        let err = assemble("bad3", "x:\nx:\nexit").unwrap_err();
        assert!(err.msg.contains("duplicate"));

        let err = assemble("bad4", "mov r11, 0\nexit").unwrap_err();
        assert!(err.msg.contains("r11"));
    }

    #[test]
    fn hex_and_signed_immediates() {
        let prog = assemble("imm", "lddw r0, 0xFF\nadd r0, -1\nexit").unwrap();
        assert_eq!(
            prog.insns[0],
            Insn::LoadImm64 {
                dst: Reg::R0,
                imm: 255
            }
        );
        assert_eq!(
            prog.insns[1],
            Insn::Alu {
                w: Width::W64,
                op: AluOp::Add,
                dst: Reg::R0,
                src: Operand::Imm(-1)
            }
        );
    }

    /// An immediate takes one sign, before any `0x`; `i64::MIN` parses,
    /// and one past it is refused rather than negated with overflow.
    #[test]
    fn an_immediate_takes_one_sign() {
        for (imm, want) in [
            ("-9223372036854775808", Some(i64::MIN)),
            ("-0x8000000000000000", Some(i64::MIN)),
            ("9223372036854775807", Some(i64::MAX)),
            ("+0x7fffffffffffffff", Some(i64::MAX)),
            ("-0", Some(0)),
            ("--5", None),
            ("-+5", None),
            ("+-5", None),
            ("0x-5", None),
            ("0x+5", None),
            ("--9223372036854775808", None),
            ("-9223372036854775809", None),
            ("9223372036854775808", None),
            ("0x8000000000000000", None),
            ("-", None),
            ("0x", None),
        ] {
            let got = assemble("imm", &format!("lddw r0, {imm}\nexit"));
            let got = got.map(|p| match p.insns[0] {
                Insn::LoadImm64 { imm, .. } => imm,
                other => panic!("{other:?}"),
            });
            match want {
                Some(v) => assert_eq!(got, Ok(v), "{imm}"),
                None => assert_eq!(
                    got.unwrap_err().msg,
                    format!("bad immediate `{imm}`"),
                    "{imm}"
                ),
            }
        }
        let err = assemble("imm", "mov r0, --5\nexit").unwrap_err();
        assert_eq!(err.msg, "bad immediate `--5`");
    }

    proptest::proptest! {
        /// Every 64-bit immediate the disassembler prints assembles back.
        #[test]
        fn any_lddw_immediate_round_trips(imm in proptest::prelude::any::<i64>()) {
            let prog = crate::asm::Asm::new()
                .load_imm64(Reg::R0, imm)
                .exit()
                .build("lddw")
                .unwrap();
            let again = assemble("lddw", &listing(&prog)).unwrap();
            proptest::prop_assert_eq!(prog.insns, again.insns);
        }
    }
}
