//! Quickstart: the §3.1 workflow, end to end.
//!
//! 1. Write a scheduling policy in the safe C subset (Figure 5a's round
//!    robin).
//! 2. Hand it to `syrupd`, which compiles it, runs the static verifier,
//!    and installs it at the socket-select hook — isolated to this
//!    application's port.
//! 3. Watch incoming datagrams get matched to sockets.
//!
//! Run with: `cargo run -p syrup --example quickstart`

use syrup::blackbox::{Layer, Recorder};
use syrup::core::{CompileOptions, Decision, Hook, HookMeta, PolicySource, Syrupd};

pub fn main() {
    // The policy file, exactly as an application developer would write it.
    let policy_file = r#"
        uint32_t idx = 0;
        uint32_t schedule(void *pkt_start, void *pkt_end) {
            idx++;
            return idx % NUM_THREADS;
        }
    "#;

    // ❶ The system-wide daemon is already running; our app registers with
    // the port it owns.
    let daemon = Syrupd::new();
    // The flight recorder keeps one record per scheduling decision.
    let recorder = Recorder::new();
    daemon.attach_blackbox(&recorder);
    let (app, _maps) = daemon.register_app("quickstart-kv", &[8080]).unwrap();
    println!("registered application {app} owning port 8080");

    // ❷+❸ syr_deploy_policy(): compile → verify → install.
    let handle = daemon
        .deploy(
            app,
            Hook::SocketSelect,
            PolicySource::C {
                source: policy_file.to_string(),
                options: CompileOptions::new().define("NUM_THREADS", 4),
            },
        )
        .unwrap();
    println!(
        "deployed round-robin at {} (executor map pinned for this app)",
        handle.hook
    );

    // ❹ The hook now runs our policy for every datagram on port 8080.
    println!("\nincoming datagrams:");
    let mut datagram = vec![0u8; 64];
    for i in 0..6 {
        let meta = HookMeta {
            dst_port: 8080,
            ..HookMeta::default()
        };
        let (_, decision) = daemon.schedule(Hook::SocketSelect, &mut datagram, &meta);
        println!("  datagram {i} -> {decision:?}");
    }

    // Traffic for ports we do not own is untouched (isolation, §4.3).
    let meta = HookMeta {
        dst_port: 9999,
        ..HookMeta::default()
    };
    let (owner, decision) = daemon.schedule(Hook::SocketSelect, &mut datagram, &meta);
    assert_eq!(owner, None);
    assert_eq!(decision, Decision::Pass);
    println!("\ndatagram for port 9999 -> PASS (not our application's traffic)");

    // The verifier refuses unsafe policies: this one reads the packet
    // without checking pkt_end first.
    let unsafe_policy = r#"
        uint32_t schedule(void *pkt_start, void *pkt_end) {
            return *(uint32_t *)(pkt_start + 0);
        }
    "#;
    let err = daemon
        .deploy(
            app,
            Hook::SocketSelect,
            PolicySource::C {
                source: unsafe_policy.to_string(),
                options: CompileOptions::new(),
            },
        )
        .unwrap_err();
    println!("\nunsafe policy rejected as expected:\n  {err}");

    // ❺ Everything above was observed: syrupd keeps counters and cycle
    // histograms, and the recorder holds each decision.
    println!("\ntelemetry snapshot:");
    print!("{}", daemon.telemetry_snapshot().render_table());
    println!("\nrecent decisions (oldest first):");
    for ev in recorder.events(Layer::Syrupd) {
        println!(
            "  t={}ns {} app{} -> verdict {} ({} cycles)",
            ev.at_ns,
            Hook::ALL[ev.aux as usize],
            ev.id,
            ev.w0,
            ev.w1
        );
    }
}
