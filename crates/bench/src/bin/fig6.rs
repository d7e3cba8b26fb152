//! `fig6` — the program is [`bench::figures`]' `fig6` entry.

fn main() -> std::process::ExitCode {
    bench::figures::main("fig6")
}
