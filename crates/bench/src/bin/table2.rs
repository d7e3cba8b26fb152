//! `table2` — the program is [`bench::figures::table2`].

fn main() -> std::process::ExitCode {
    bench::exit_code(bench::figures::table2())
}
