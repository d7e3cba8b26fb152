//! Policy pipeline subcommands: `compile`, `verify-asm`, `hooks`, `demo`.

use syrup::core::{CompileOptions, Hook};
use syrup::ebpf::maps::MapRegistry;
use syrup::ebpf::{assemble, verify};
use syrup::lang::count_loc;

use crate::args::{operand, read_text};

fn parse_defines(args: &[String]) -> Result<CompileOptions, String> {
    let mut opts = CompileOptions::new();
    let mut i = 0;
    while i < args.len() {
        if args[i] == "-D" {
            let kv = args
                .get(i + 1)
                .ok_or_else(|| "-D requires NAME=VALUE".to_string())?;
            let (name, value) = kv
                .split_once('=')
                .ok_or_else(|| format!("bad define `{kv}` (want NAME=VALUE)"))?;
            let value: i64 = value
                .parse()
                .map_err(|_| format!("define value `{value}` is not an integer"))?;
            opts = opts.define(name, value);
            i += 2;
        } else {
            i += 1;
        }
    }
    Ok(opts)
}

pub fn compile(args: &[String]) -> Result<(), String> {
    let path = operand(args, "compile FILE.c [-D NAME=VALUE]...")?;
    let source = read_text(path)?;
    let opts = parse_defines(&args[1..])?;
    let maps = MapRegistry::new();
    let compiled =
        syrup::lang::compile(&source, &opts, &maps).map_err(|e| format!("compile error: {e}"))?;
    println!(
        "; {} — {} LoC, {} instructions",
        path,
        count_loc(&source),
        compiled.program.len()
    );
    for (name, id) in &compiled.created_maps {
        println!("; map `{name}` -> #{}", id.0);
    }
    println!("{}", compiled.program.disasm());
    let info =
        verify(&compiled.program, &maps).map_err(|e| format!("; verifier: REJECTED — {e}"))?;
    println!("; verifier: OK ({} instructions analyzed)", info.analyzed);
    Ok(())
}

pub fn verify_asm(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("usage: syrupctl verify-asm FILE.s")?;
    let prog = assemble(path, &read_text(path)?).map_err(|e| format!("assembly error: {e}"))?;
    let info = verify(&prog, &MapRegistry::new()).map_err(|e| format!("REJECTED: {e}"))?;
    println!(
        "OK: {} instructions, {} analyzed",
        prog.len(),
        info.analyzed
    );
    Ok(())
}

pub fn hooks(_args: &[String]) -> Result<(), String> {
    println!("{:<18} {:<32} executor", "hook", "input");
    for hook in Hook::ALL {
        println!(
            "{:<18} {:<32} {}",
            hook.to_string(),
            hook.input(),
            hook.executor()
        );
    }
    Ok(())
}

pub fn demo(_args: &[String]) -> Result<(), String> {
    use syrup::core::{HookMeta, PolicySource, Syrupd};
    let daemon = Syrupd::new();
    let (app, _) = daemon.register_app("demo", &[8080]).expect("fresh daemon");
    daemon
        .deploy(
            app,
            Hook::SocketSelect,
            PolicySource::C {
                source: syrup::policies::c_sources::ROUND_ROBIN.to_string(),
                options: CompileOptions::new().define("NUM_THREADS", 4),
            },
        )
        .expect("demo policy deploys");
    println!("deployed Figure 5a round robin for port 8080; scheduling 8 datagrams:");
    let mut pkt = [0u8; 32];
    for i in 0..8 {
        let meta = HookMeta {
            dst_port: 8080,
            ..HookMeta::default()
        };
        let (_, d) = daemon.schedule(Hook::SocketSelect, &mut pkt, &meta);
        println!("  datagram {i} -> {d:?}");
    }
    Ok(())
}
