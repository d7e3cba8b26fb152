//! `ablate_sockbuf` — the program is [`bench::figures`]' `ablate_sockbuf` entry.

fn main() -> std::process::ExitCode {
    bench::figures::main("ablate_sockbuf")
}
