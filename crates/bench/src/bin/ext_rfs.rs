//! `ext_rfs` — the program is [`bench::figures`]' `ext_rfs` entry.

fn main() -> std::process::ExitCode {
    bench::figures::main("ext_rfs")
}
