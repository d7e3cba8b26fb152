//! Introspection subcommands over the warmed quickstart daemon: `prog
//! list`, `prog stats`, `queue list`, `map dump`, `map get`, `metrics`.
//!
//! Rows → emitters: a report builds its rows once, as [`Cell`]s under
//! [`Column`]s, and hands them to the JSON or the table emitter.

use syrup::apps::quickstart::{self, Quickstart};
use syrup::core::{AppId, Hook};
use syrup::ebpf::maps::MapKind;
use syrup::net::SocketBuf;

use crate::args::{flag_value, has_flag, json_array};
use crate::scenario::run;

/// One column of a report: its JSON key, its table title, and its table
/// width — negative left-aligns, 0 prints the cell as it is.
type Column = (&'static str, &'static str, isize);

/// One value, rendered for both emitters.
struct Cell {
    json: String,
    text: String,
}

impl Cell {
    fn new(json: impl ToString, text: impl ToString) -> Cell {
        Cell {
            json: json.to_string(),
            text: text.to_string(),
        }
    }

    /// A number: the same digits in JSON and in a table.
    fn num(n: impl ToString) -> Cell {
        Cell::new(n.to_string(), n)
    }

    /// A string: quoted in JSON, bare in a table.
    fn str(s: &str) -> Cell {
        Cell::new(format!("\"{s}\""), s)
    }

    /// A value that may be missing: `null` in JSON, `-` in a table.
    fn opt(cell: Option<Cell>) -> Cell {
        cell.unwrap_or_else(|| Cell::new("null", "-"))
    }
}

/// `rows` as a JSON array of objects keyed by column.
fn json_rows(columns: &[Column], rows: &[Vec<Cell>]) -> String {
    let object = |row: &Vec<Cell>| {
        let fields = columns
            .iter()
            .zip(row)
            .map(|((key, ..), cell)| format!("\"{key}\":{}", cell.json));
        format!("{{{}}}", fields.collect::<Vec<_>>().join(","))
    };
    json_array(rows.iter().map(object))
}

/// Prints `rows` as a table under the column titles.
fn print_table(columns: &[Column], rows: &[Vec<Cell>]) {
    let line = |texts: Vec<&str>| {
        let padded = columns.iter().zip(texts).map(|(&(.., width), text)| {
            let w = width.unsigned_abs();
            if width < 0 {
                format!("{text:<w$}")
            } else {
                format!("{text:>w$}")
            }
        });
        padded.collect::<Vec<_>>().join(" ")
    };
    println!("{}", line(columns.iter().map(|c| c.1).collect()));
    for row in rows {
        println!("{}", line(row.iter().map(|c| c.text.as_str()).collect()));
    }
}

/// Prints `rows` the way the flags ask: a JSON array or a table.
fn emit(args: &[String], columns: &[Column], rows: &[Vec<Cell>]) {
    if has_flag(args, "--json") {
        println!("{}", json_rows(columns, rows));
    } else {
        print_table(columns, rows);
    }
}

/// The columns `prog list` and `prog stats` share, one row per deployed
/// policy; `extra` appends each command's own cells.
fn prog_rows(q: &Quickstart, extra: impl Fn(AppId, Hook) -> Vec<Cell>) -> Vec<Vec<Cell>> {
    // Which VM engine executes eBPF-backed rows; native rows bypass the
    // VM entirely, so they report no engine.
    let engine = q.syrupd.backend().to_string();
    let row = |(app, hook, native): (AppId, Hook, bool)| {
        let mut row = vec![
            Cell::num(app.0),
            Cell::str(hook.name()),
            Cell::str(if native { "native" } else { "ebpf" }),
            Cell::opt((!native).then(|| Cell::str(&engine))),
        ];
        row.extend(extra(app, hook));
        row
    };
    q.syrupd.deployed().into_iter().map(row).collect()
}

const PROG_COLUMNS: [Column; 4] = [
    ("app", "app", -6),
    ("hook", "hook", -18),
    ("backend", "backend", -8),
    ("engine", "engine", -8),
];

pub fn prog_list(args: &[String]) -> Result<(), String> {
    let (q, _) = run(args, &[])?;
    let rows = prog_rows(&q, |app, hook| {
        let ranked = q.syrupd.ranks_enabled(app, hook);
        vec![Cell::new(ranked, if ranked { "yes" } else { "no" })]
    });
    let columns = [&PROG_COLUMNS[..], &[("ranked", "ranked", 0)]].concat();
    emit(args, &columns, &rows);
    Ok(())
}

pub fn prog_stats(args: &[String]) -> Result<(), String> {
    let (q, _) = run(args, &[])?;
    let rows = prog_rows(&q, |app, hook| {
        let (insns, cycles) = q.syrupd.policy_stats(app, hook).unzip();
        let mean = |v: Option<f64>| Cell::opt(v.map(|v| Cell::num(format!("{v:.1}"))));
        vec![mean(insns), mean(cycles)]
    });
    let columns = [
        &PROG_COLUMNS[..],
        &[
            ("insns_per_invocation", "insns/invoc", 12),
            ("cycles_per_invocation", "cycles/invoc", 12),
        ],
    ]
    .concat();
    let engine = q.syrupd.backend().to_string();
    // Per-engine invocation and modelled-cycle totals; the VM splits its
    // run/cycle counters by backend, so a scenario run entirely on one
    // engine reports zero on the other.
    let snap = q.syrupd.telemetry_snapshot();
    let runs_interp = snap.counter("vm/runs_interp");
    let runs_fast = snap.counter("vm/runs_fast");
    let cycles_interp = snap.counter("vm/cycles_interp");
    let cycles_fast = snap.counter("vm/cycles_fast");
    if has_flag(args, "--json") {
        println!(
            "{{\"engine\":\"{engine}\",\"runs_interp\":{runs_interp},\"runs_fast\":{runs_fast},\
             \"cycles_interp\":{cycles_interp},\"cycles_fast\":{cycles_fast},\"programs\":{}}}",
            json_rows(&columns, &rows)
        );
    } else {
        println!(
            "engine: {engine}  runs: interp={runs_interp} fast={runs_fast}  \
             cycles: interp={cycles_interp} fast={cycles_fast}"
        );
        print_table(&columns, &rows);
    }
    Ok(())
}

/// One row per NIC ring and reuseport socket: queue discipline, live
/// occupancy, enqueue/drop counters, and per-rank-band depths.
pub fn queue_list(args: &[String]) -> Result<(), String> {
    let (q, _) = run(args, &[])?;
    let row = |component, kind, index, buf: &SocketBuf<usize>| {
        let bands = buf.band_depths();
        vec![
            Cell::str(component),
            Cell::num(index),
            Cell::str(kind),
            Cell::num(buf.len()),
            Cell::num(buf.enqueued),
            Cell::num(buf.dropped),
            // The table sets the band depths off by one more space.
            Cell::new(
                json_array(bands.iter().map(usize::to_string)),
                format!(" {bands:?}"),
            ),
        ]
    };
    let nic = (0..q.nic.num_queues())
        .filter_map(|i| Some(row("nic", q.nic.kind().as_str(), i, q.nic.queue(i)?)));
    let sock = (0..quickstart::THREADS)
        .filter_map(|i| Some(row("sock", q.group.kind().as_str(), i, q.group.socket(i)?)));
    let columns = [
        ("component", "component", -10),
        ("index", "index", 5),
        ("kind", "kind", -8),
        ("depth", "depth", 6),
        ("enqueued", "enqueued", 9),
        ("dropped", "dropped", 8),
        ("bands", " bands", 0),
    ];
    emit(args, &columns, &nic.chain(sock).collect::<Vec<_>>());
    Ok(())
}

fn map_kind_str(kind: MapKind) -> &'static str {
    match kind {
        MapKind::Array => "array",
        MapKind::Hash => "hash",
        MapKind::ProgArray => "prog-array",
    }
}

pub fn map_dump(args: &[String]) -> Result<(), String> {
    let (q, _) = run(args, &[])?;
    let registry = q.syrupd.registry();
    let row = |(path, id): (String, syrup::ebpf::maps::MapId)| {
        let def = registry.get(id)?.def();
        Some(vec![
            Cell::str(&path),
            Cell::num(id.0),
            Cell::str(map_kind_str(def.kind)),
            Cell::num(def.key_size),
            Cell::num(def.value_size),
            Cell::num(def.max_entries),
        ])
    };
    let columns = [
        ("path", "path", -28),
        ("id", "id", -4),
        ("kind", "kind", -10),
        ("key_size", "key_sz", 8),
        ("value_size", "value_sz", 10),
        ("max_entries", "max_entries", 11),
    ];
    let rows: Vec<_> = registry.pins().into_iter().filter_map(row).collect();
    emit(args, &columns, &rows);
    Ok(())
}

pub fn map_get(args: &[String]) -> Result<(), String> {
    let (Some(path), Some(key)) = (args.first(), args.get(1)) else {
        return Err("usage: syrupctl map get PATH KEY".to_string());
    };
    let key: u32 = key
        .parse()
        .map_err(|_| format!("key `{key}` is not a u32"))?;
    let (q, _) = run(args, &[])?;
    let map = q
        .syrupd
        .registry()
        .open(path)
        .ok_or_else(|| format!("no map pinned at `{path}` (try `syrupctl map dump`)"))?;
    match map.lookup_u64(key) {
        Ok(Some(v)) => println!("{v}"),
        Ok(None) => return Err(format!("key {key} not present")),
        Err(e) => return Err(format!("lookup failed: {e:?}")),
    }
    Ok(())
}

pub fn metrics(args: &[String]) -> Result<(), String> {
    let (q, _) = run(args, &[])?;
    let snapshot = q.syrupd.telemetry_snapshot();
    if has_flag(args, "--openmetrics") {
        print!("{}", syrup::scope::openmetrics(&snapshot));
        return Ok(());
    }
    // The per-shard breakdown only exists when the operator asked for a
    // sharded replay: the registry itself stays shard-count invariant, so
    // the split lives in the side-channel `shard_stats`, not in new rows.
    if flag_value(args, "--shards")?.is_none() {
        if has_flag(args, "--json") {
            println!("{}", snapshot.to_json());
        } else {
            print!("{}", snapshot.render_table());
        }
        return Ok(());
    }
    let columns = [
        ("shard", "shard", -6),
        ("len", "len", 5),
        ("pushes", "pushes", 8),
        ("pops", "pops", 8),
        ("cascaded", "cascaded", 9),
        ("overflowed", "overflowed", 10),
        ("clamped", "clamped", 8),
        ("wheel_drift_ns", "wheel_drift_ns", 15),
        ("drift_max_ns", "drift_max_ns", 13),
    ];
    let row = |s: &syrup::sim::ShardQueueStats| {
        vec![
            Cell::num(s.shard),
            Cell::num(s.len),
            Cell::num(s.pushes),
            Cell::num(s.pops),
            Cell::num(s.cascaded),
            Cell::num(s.overflowed),
            Cell::num(s.clamped),
            Cell::num(s.drift_total_ns),
            Cell::num(s.drift_max_ns),
        ]
    };
    let rows: Vec<_> = q.shard_stats.iter().map(row).collect();
    if has_flag(args, "--json") {
        println!(
            "{{\"snapshot\":{},\"shards\":{}}}",
            snapshot.to_json(),
            json_rows(&columns, &rows)
        );
    } else {
        print!("{}", snapshot.render_table());
        println!();
        print_table(&columns, &rows);
    }
    Ok(())
}
