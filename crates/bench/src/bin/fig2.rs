//! `fig2` — the program is [`bench::figures`]' `fig2` entry.

fn main() -> std::process::ExitCode {
    bench::figures::main("fig2")
}
