//! `sched_tail` — the program is [`bench::figures`]' `sched_tail` entry.

fn main() -> std::process::ExitCode {
    bench::figures::main("sched_tail")
}
