//! The Syrup policy language: a safe subset of C compiled to bytecode.
//!
//! §3.3 of the paper: users "provide an implementation of the `schedule`
//! matching function … written in a safe subset of C", which `syrupd`
//! compiles and deploys. This crate is that compiler for the reproduction:
//! a lexer, recursive-descent parser, and code generator targeting the
//! `syrup-ebpf` ISA, whose output must then pass the static verifier like
//! any other program.
//!
//! # The subset
//!
//! * Entry point: `uint32_t schedule(void *pkt_start, void *pkt_end)`.
//!   The two parameters are bound to the packet's `data` / `data_end`
//!   pointers; every packet dereference needs a dominating bounds check
//!   against `pkt_end` or the verifier will reject the program — the same
//!   discipline §4.3 describes.
//! * Types: `uint32_t`, `uint64_t`, `int`, `void *`, `uint8_t*`…`uint64_t *`,
//!   packed `struct` declarations for header layouts, pointer casts.
//! * Statements: declarations, assignment (including `+=`, `++`, `--`),
//!   `if`/`else`, constant-bound `for` loops (unrolled at compile time, as
//!   Clang does for eBPF targets — the paper's Table 2 notes SCAN-Avoid's
//!   size comes from exactly this unrolling), `break`, `continue`,
//!   `return`.
//! * Globals (e.g. the round-robin `idx`) live in an implicit per-policy
//!   array map, mirroring how eBPF compiles C globals into a `.bss` map.
//! * Builtins: `syr_map_lookup_elem`, `syr_map_update_elem`,
//!   `syr_map_delete_elem`, `__sync_fetch_and_add`, `get_random()`,
//!   `ktime_get_ns()`, `cpu_id()`, `bpf_redirect_map`.
//! * Maps are declared in the policy file with
//!   `SYRUP_MAP(name, ARRAY|HASH, max_entries);` (values are `uint64_t`,
//!   keys `uint32_t` — the paper's §3.4 default) or bound to existing maps
//!   by `syrupd` through [`CompileOptions::external_maps`].
//! * `PASS`, `DROP`, and `NULL` are predefined; experiments inject
//!   workload constants (e.g. `NUM_THREADS`) via [`CompileOptions::define`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod codegen;
pub mod interp;
pub mod lexer;
pub mod parser;

use std::collections::HashMap;
use std::fmt;

use syrup_ebpf::maps::{MapId, MapRegistry};
use syrup_ebpf::Program;

/// Compilation parameters supplied by `syrupd` at deployment time.
#[derive(Debug, Clone, Default)]
pub struct CompileOptions {
    /// `#define`-style integer constants visible to the policy
    /// (e.g. `NUM_THREADS`, `SCAN`, `GET`).
    pub defines: HashMap<String, i64>,
    /// Pre-existing maps the policy may reference by name (executor maps,
    /// maps shared with other layers).
    pub external_maps: HashMap<String, MapId>,
}

impl CompileOptions {
    /// Creates empty options.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a compile-time constant.
    pub fn define(mut self, name: &str, value: i64) -> Self {
        self.defines.insert(name.to_string(), value);
        self
    }

    /// Binds `name` in the policy source to an existing map.
    pub fn bind_map(mut self, name: &str, id: MapId) -> Self {
        self.external_maps.insert(name.to_string(), id);
        self
    }
}

/// The result of compiling a policy file.
#[derive(Debug, Clone)]
pub struct CompiledPolicy {
    /// The generated (not yet verified) program.
    pub program: Program,
    /// Maps created for `SYRUP_MAP` declarations, by name.
    pub created_maps: HashMap<String, MapId>,
    /// The implicit globals map, if the policy used globals.
    pub globals_map: Option<MapId>,
    /// Number of non-blank, non-comment source lines — the "LoC" column of
    /// Table 2.
    pub source_loc: usize,
}

/// A compile error with a source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LangError {
    /// 1-based source line.
    pub line: usize,
    /// Human-readable message.
    pub msg: String,
}

impl LangError {
    pub(crate) fn new(line: usize, msg: impl Into<String>) -> Self {
        LangError {
            line,
            msg: msg.into(),
        }
    }
}

impl fmt::Display for LangError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for LangError {}

/// Counts the non-blank, non-comment lines of a policy (Table 2's LoC).
pub fn count_loc(source: &str) -> usize {
    source
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with("//") && !l.starts_with("/*") && *l != "*/")
        .count()
}

/// Parses `source` to an AST without generating code.
///
/// Used by the fuzz harness to feed the same AST to both [`codegen`] (via
/// [`compile`]) and the reference [`interp`]reter.
pub fn parse_source(source: &str) -> Result<ast::Unit, LangError> {
    parser::parse(lexer::lex(source)?)
}

/// Compiles `source` into a program, creating declared maps in `maps`.
pub fn compile(
    source: &str,
    opts: &CompileOptions,
    maps: &MapRegistry,
) -> Result<CompiledPolicy, LangError> {
    let tokens = lexer::lex(source)?;
    let unit = parser::parse(tokens)?;
    let mut policy = codegen::generate(&unit, opts, maps)?;
    policy.source_loc = count_loc(source);
    Ok(policy)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loc_skips_blanks_and_comments() {
        let src = "\n// comment\nuint32_t schedule() {\n  return 0;\n}\n\n";
        assert_eq!(count_loc(src), 3);
    }

    /// A one-line policy whose body nests `depth` levels of `shape`.
    fn nested(shape: &str, depth: usize) -> String {
        let body = match shape {
            "paren" => format!("return {}1{};", "(".repeat(depth), ")".repeat(depth)),
            "not" => format!("return {}1;", "!".repeat(depth)),
            "neg" => format!("return {}1;", "- ".repeat(depth)),
            "if" => format!("{}return 1; return 0;", "if (1) ".repeat(depth)),
            "chain" => format!("return 1{};", "+1".repeat(depth)),
            _ => unreachable!("{shape}"),
        };
        format!("uint32_t schedule(void *pkt_start, void *pkt_end) {{ {body} }}")
    }

    #[test]
    fn nesting_is_bounded_at_max_depth() {
        // On a thread with exactly the default 2 MiB test stack.
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                for shape in ["paren", "not", "neg", "if", "chain"] {
                    let maps = MapRegistry::new();
                    let at = nested(shape, parser::MAX_DEPTH);
                    compile(&at, &CompileOptions::new(), &maps).expect(shape);
                    let unit = parse_source(&at).expect(shape);
                    let policy = interp::prepare(&unit, &CompileOptions::new(), &maps).unwrap();
                    let ret = policy.run(&mut [0; 64], &mut Default::default());
                    let want = if shape == "chain" {
                        parser::MAX_DEPTH as u64 + 1
                    } else {
                        1
                    };
                    assert_eq!(ret.expect(shape).ret, want, "{shape}");

                    let over = nested(shape, parser::MAX_DEPTH + 1);
                    let err = compile(&over, &CompileOptions::new(), &maps).unwrap_err();
                    assert_eq!(err.to_string(), "line 1: nesting deeper than 128 levels");
                }
                // A type is as deep as its `*`s.
                let pointer =
                    |stars| format!("uint32_t schedule() {{ uint32_t {}p; }}", "*".repeat(stars));
                parse_source(&pointer(parser::MAX_DEPTH)).unwrap();
                let err = parse_source(&pointer(parser::MAX_DEPTH + 1)).unwrap_err();
                assert_eq!(err.to_string(), "line 1: nesting deeper than 128 levels");
            })
            .unwrap()
            .join()
            .unwrap();
    }
}
