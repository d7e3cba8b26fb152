//! Robustness properties: no component panics on hostile input.
//!
//! The toolchain faces *untrusted* policy files (§3), so the lexer,
//! parser, compiler, text assembler, and verifier must fail with errors —
//! never panic — on arbitrary input. So must the JSON reader behind
//! `syrupctl trace validate` and `blackbox validate`, on whatever file it
//! is handed.

use std::sync::OnceLock;

use proptest::prelude::*;
use serde::json;

use syrup::apps::quickstart;
use syrup::blackbox::Recorder;
use syrup::core::CompileOptions;
use syrup::ebpf::maps::MapRegistry;
use syrup::ebpf::{assemble, verify};
use syrup::net::packet::parse_app_header;
use syrup::net::StreamFramer;
use syrup::profile::Profiler;
use syrup::telemetry::Snapshot;
use syrup::trace::{chrome_trace_json, Tracer};

/// A quickstart trace export and a postmortem bundle of the shapes
/// `syrupctl trace record --export` and `blackbox record --out` write,
/// each from a real eight-request run; made once per test binary.
fn exports() -> &'static [String; 2] {
    static EXPORTS: OnceLock<[String; 2]> = OnceLock::new();
    EXPORTS.get_or_init(|| {
        let trace = chrome_trace_json(&quickstart::run(&Tracer::new(), 8).records);
        let (profiler, recorder) = (Profiler::new(), Recorder::new());
        let handle = recorder.clone();
        let q = quickstart::run_observed(
            &Tracer::new(),
            &profiler,
            &recorder,
            8,
            false,
            &mut |completed, _, _| {
                if completed == 4 && !handle.frozen() {
                    handle.trigger_manual("half way");
                }
            },
        );
        let delta = q.syrupd.telemetry_snapshot().delta(&Snapshot::default());
        let bundle = format!(
            "{{\"schema\":\"syrup-blackbox-bundle/1\",\"completed\":{},\
             \"postmortem\":{},\"snapshot_delta\":{},\"trace\":{},\"flame\":{}}}",
            q.completed,
            json::to_string(&recorder.capture()).unwrap(),
            json::to_string(&delta).unwrap(),
            chrome_trace_json(&q.records),
            json::to_string(&profiler.flame()).unwrap(),
        );
        for text in [&trace, &bundle] {
            json::from_str(text).expect("a real export parses");
        }
        [trace, bundle]
    })
}

proptest! {
    /// The policy compiler returns Ok or Err on any string; it never
    /// panics.
    #[test]
    fn compiler_never_panics(source in "\\PC{0,300}") {
        let maps = MapRegistry::new();
        let _ = syrup::lang::compile(&source, &CompileOptions::new(), &maps);
    }

    /// C-looking garbage (keywords, operators, braces in random order)
    /// also never panics the compiler.
    #[test]
    fn compiler_survives_c_shaped_garbage(
        tokens in prop::collection::vec(
            prop::sample::select(vec![
                "uint32_t", "uint64_t", "void", "*", "schedule", "(", ")", "{", "}",
                "return", "if", "else", "for", "break", ";", ",", "x", "y", "0", "1",
                "+", "-", "==", "&", "=", "++", "->", "struct", "SYRUP_MAP",
                "syr_map_lookup_elem",
            ]),
            0..60,
        )
    ) {
        let source = tokens.join(" ");
        let maps = MapRegistry::new();
        let _ = syrup::lang::compile(&source, &CompileOptions::new(), &maps);
    }

    /// The text assembler never panics, and anything it accepts the
    /// verifier can process without panicking.
    #[test]
    fn assembler_never_panics(source in "\\PC{0,200}") {
        if let Ok(prog) = assemble("fuzz", &source) {
            let maps = MapRegistry::new();
            let _ = verify(&prog, &maps);
        }
    }

    /// Assembler built from plausible mnemonic soup never panics.
    #[test]
    fn assembler_survives_mnemonic_soup(
        lines in prop::collection::vec(
            prop::sample::select(vec![
                "mov r0, 0", "add r1, r2", "ldxdw r0, [r1+0]", "stxdw [r10-8], r0",
                "jeq r0, 0, out", "ja out", "call map_lookup_elem", "exit",
                "out:", "lddw r3, 0xFFFF", "aadddw [r10-8], r1", "be r0, 16",
                "garbage", "mov r99, 1", "ldxdw r0, [nope]",
            ]),
            0..20,
        )
    ) {
        let source = lines.join("\n");
        if let Ok(prog) = assemble("soup", &source) {
            let maps = MapRegistry::new();
            let _ = verify(&prog, &maps);
        }
    }

    /// Packet parsing never panics on arbitrary bytes.
    #[test]
    fn packet_parsers_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..128)) {
        let _ = parse_app_header(&bytes);
    }

    /// The KCM framer handles arbitrary byte streams without panicking and
    /// never emits a frame longer than the declared maximum.
    #[test]
    fn kcm_framer_never_panics(segments in prop::collection::vec(
        prop::collection::vec(any::<u8>(), 0..64), 0..12)) {
        let mut framer = StreamFramer::new();
        for seg in &segments {
            match framer.feed(seg) {
                Ok(frames) => {
                    for f in frames {
                        prop_assert!(f.len() <= syrup::net::kcm::MAX_FRAME);
                    }
                }
                Err(_) => {
                    prop_assert!(framer.is_poisoned());
                    break;
                }
            }
        }
    }

    /// KCM reassembly is invariant under re-segmentation: however a wire
    /// byte stream is chopped into TCP segments, the same frames emerge.
    #[test]
    fn kcm_reassembly_is_segmentation_invariant(
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..32), 1..6),
        cut in 1usize..17,
    ) {
        let wire: Vec<u8> = payloads
            .iter()
            .flat_map(|p| syrup::net::kcm::encode_frame(p))
            .collect();

        let mut whole = StreamFramer::new();
        let all_at_once = whole.feed(&wire).unwrap();

        let mut chopped = StreamFramer::new();
        let mut rejoined = Vec::new();
        for chunk in wire.chunks(cut) {
            rejoined.extend(chopped.feed(chunk).unwrap());
        }
        prop_assert_eq!(all_at_once, rejoined);
    }

    /// The JSON reader returns Ok or Err on any string; it never panics.
    #[test]
    fn json_reader_never_panics(
        text in "\\PC{0,300}",
        bytes in prop::collection::vec(any::<u8>(), 0..300),
    ) {
        let _ = json::from_str(&text);
        let _ = json::from_str(&String::from_utf8_lossy(&bytes));
    }

    /// JSON-shaped soup: brackets, escapes (good, signed and cut short),
    /// huge exponents and long digit runs in random order.
    #[test]
    fn json_reader_survives_json_shaped_soup(
        tokens in prop::collection::vec(
            prop::sample::select(vec![
                "{", "}", "[", "]", ",", ":", "\"", "\"a\"", "\\", "\\u", "\\u00e9",
                "\\u+04A", "\\u-04A", "\\uD83D", "\\u04", "\\n", "\\x", "0", "-", "-0",
                "1.", ".5", "1e", "1e+", "1e999999", "-1e-999999", "1e309",
                "123456789012345678901234567890", "true", "tru", "null", "nul", "false",
                " ", "\n", "\u{0}", "\u{1f}", "é", "[[[[[[[[[[[[[[[[", "]]]]]]]]]]]]]]]]",
            ]),
            0..80,
        )
    ) {
        let _ = json::from_str(&tokens.concat());
    }

    /// Nesting near the 128-level cap: within it a closed document parses,
    /// past it the reader refuses at the opening bracket over the cap.
    #[test]
    fn json_reader_caps_nesting_without_panicking(
        depth in 120usize..140,
        object in any::<bool>(),
        unclosed in 0usize..3,
    ) {
        let (open, close) = if object { ("{\"a\":", "}") } else { ("[", "]") };
        let text = format!("{}0{}", open.repeat(depth), close.repeat(depth - unclosed));
        match json::from_str(&text) {
            Ok(_) => prop_assert!(depth <= 128 && unclosed == 0),
            Err(e) if depth > 128 => {
                prop_assert_eq!(e.message, "nesting deeper than 128 levels");
                prop_assert_eq!(e.offset, 128 * open.len());
            }
            Err(_) => prop_assert!(unclosed > 0),
        }
    }

    /// Every truncation of a real trace export or postmortem bundle is
    /// refused, never a panic.
    #[test]
    fn json_reader_refuses_truncated_exports(which in 0usize..2, cut in any::<u32>()) {
        let text = &exports()[which];
        let cut = cut as usize % text.len();
        prop_assert!(json::from_str(&String::from_utf8_lossy(&text.as_bytes()[..cut])).is_err());
    }

    /// A single byte of a real export overwritten with any value: Ok or
    /// Err, never a panic.
    #[test]
    fn json_reader_survives_single_byte_edits(
        which in 0usize..2,
        at in any::<u32>(),
        byte in any::<u8>(),
    ) {
        let mut bytes = exports()[which].clone().into_bytes();
        let at = at as usize % bytes.len();
        bytes[at] = byte;
        let _ = json::from_str(&String::from_utf8_lossy(&bytes));
    }
}
