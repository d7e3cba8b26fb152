//! `ext_late_binding` — the program is [`bench::figures`]' `ext_late_binding` entry.

fn main() -> std::process::ExitCode {
    bench::figures::main("ext_late_binding")
}
