//! `ext_storage` — the program is [`bench::figures`]' `ext_storage` entry.

fn main() -> std::process::ExitCode {
    bench::figures::main("ext_storage")
}
