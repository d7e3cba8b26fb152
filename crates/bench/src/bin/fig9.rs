//! `fig9` — the program is [`bench::figures`]' `fig9` entry.

fn main() -> std::process::ExitCode {
    bench::figures::main("fig9")
}
