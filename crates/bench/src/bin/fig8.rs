//! `fig8` — the program is [`bench::figures`]' `fig8` entry.

fn main() -> std::process::ExitCode {
    bench::figures::main("fig8")
}
