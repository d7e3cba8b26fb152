//! `fig7` — the program is [`bench::figures`]' `fig7` entry.

fn main() -> std::process::ExitCode {
    bench::figures::main("fig7")
}
