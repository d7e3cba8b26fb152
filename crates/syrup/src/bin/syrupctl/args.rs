//! Flag parsing, file I/O and JSON plumbing shared by every subcommand.
//! Each helper turns its failure into the one-line message `main` prints.

use std::str::FromStr;

use serde::json::Value;

pub fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// Value of `--name VALUE`, if the flag is present.
pub fn flag_value<'a>(args: &'a [String], flag: &str) -> Result<Option<&'a str>, String> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    match args.get(i + 1) {
        Some(v) => Ok(Some(v)),
        None => Err(format!("{flag} requires a value")),
    }
}

/// The leading operand; the subcommand's usage line when the arguments
/// are empty or start with a flag.
pub fn operand<'a>(args: &'a [String], synopsis: &str) -> Result<&'a str, String> {
    match args.first() {
        Some(a) if !a.starts_with('-') => Ok(a),
        _ => Err(format!("usage: syrupctl {synopsis}")),
    }
}

/// Numeric `--name N`; `default` when the flag is absent.
pub fn num_flag<T: FromStr>(args: &[String], flag: &str, default: T) -> Result<T, String> {
    match flag_value(args, flag)? {
        Some(v) => v
            .parse()
            .map_err(|_| format!("{flag} `{v}` is not a number")),
        None => Ok(default),
    }
}

/// [`num_flag`] for counts that must be at least 1.
pub fn positive_flag<T>(args: &[String], flag: &str, default: T) -> Result<T, String>
where
    T: FromStr + PartialOrd + From<u8>,
{
    match flag_value(args, flag)? {
        Some(v) => v
            .parse()
            .ok()
            .filter(|n| *n >= T::from(1))
            .ok_or_else(|| format!("{flag} `{v}` is not a positive number")),
        None => Ok(default),
    }
}

pub fn read_text(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

pub fn read_json(path: &str) -> Result<Value, String> {
    serde::json::from_str(&read_text(path)?).map_err(|e| format!("{path} is not valid JSON: {e}"))
}

/// Typed lookups of `value[key]`; `None` when absent or of another type.
pub fn u64_at(value: &Value, key: &str) -> Option<u64> {
    value.get(key)?.as_u64()
}

pub fn str_at<'a>(value: &'a Value, key: &str) -> Option<&'a str> {
    value.get(key)?.as_str()
}

pub fn array_at<'a>(value: &'a Value, key: &str) -> Option<&'a Vec<Value>> {
    value.get(key)?.as_array()
}

pub fn write_file(path: &str, contents: &str) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("cannot write {path}: {e}"))
}

pub fn to_json<T: serde::Serialize>(value: &T) -> Result<String, String> {
    serde::json::to_string(value).map_err(|e| format!("serialization failed: {e}"))
}

/// Joins already-rendered JSON values into one array.
pub fn json_array(values: impl IntoIterator<Item = String>) -> String {
    format!("[{}]", values.into_iter().collect::<Vec<_>>().join(","))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn argv(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    /// The rejection a numeric flag owes its caller: flag and offending text.
    fn not_a<T>(what: &str, flag: &str, text: &str) -> Result<T, String> {
        Err(format!("{flag} `{text}` is not a {what}"))
    }

    #[test]
    fn an_absent_flag_yields_the_default_and_nothing_else_does() {
        assert_eq!(num_flag(&argv(&[]), "--requests", 64usize), Ok(64));
        assert_eq!(
            num_flag(&argv(&["--json", "requests", "7"]), "--requests", 64usize),
            Ok(64)
        );
        assert_eq!(
            num_flag(&argv(&["--json", "--requests", "7"]), "--requests", 64usize),
            Ok(7)
        );
        // The default's own text is parsed like any other value.
        assert_eq!(
            num_flag(&argv(&["--requests", "64"]), "--requests", 1usize),
            Ok(64)
        );
        assert_eq!(
            positive_flag(&argv(&["--ranked"]), "--shards", 1usize),
            Ok(1)
        );
    }

    #[test]
    fn every_non_number_is_reported_with_flag_and_text() {
        for bad in [
            "abc",
            "",
            "-1",
            "1.5",
            "0x10",
            " 7",
            "7 ",
            "--json",
            "99999999999999999999",
            "٣",
        ] {
            assert_eq!(
                num_flag(&argv(&["--top", bad]), "--top", 10usize),
                not_a("number", "--top", bad)
            );
            assert_eq!(
                positive_flag(&argv(&["--interval", bad]), "--interval", 16u64),
                not_a("positive number", "--interval", bad)
            );
        }
        // Zero is a number, but not a count of shards or requests per frame.
        assert_eq!(num_flag(&argv(&["--top", "0"]), "--top", 10usize), Ok(0));
        assert_eq!(
            positive_flag(&argv(&["--shards", "0"]), "--shards", 1usize),
            not_a("positive number", "--shards", "0")
        );
        assert_eq!(
            positive_flag(&argv(&["--shards", "1"]), "--shards", 4usize),
            Ok(1)
        );
    }

    #[test]
    fn a_flag_given_last_is_missing_its_value() {
        let args = argv(&["--json", "--requests"]);
        let missing = "--requests requires a value".to_string();
        assert_eq!(flag_value(&args, "--requests"), Err(missing.clone()));
        assert_eq!(num_flag(&args, "--requests", 64usize), Err(missing.clone()));
        assert_eq!(positive_flag(&args, "--requests", 64usize), Err(missing));
        // Only the first occurrence is read.
        let twice = argv(&["--requests", "3", "--requests"]);
        assert_eq!(num_flag(&twice, "--requests", 64usize), Ok(3));
    }

    #[test]
    fn the_operand_is_the_leading_non_flag() {
        assert_eq!(operand(&argv(&["a.json", "--x"]), "t PATH"), Ok("a.json"));
        for args in [argv(&[]), argv(&["--x", "a.json"]), argv(&["-"])] {
            assert_eq!(
                operand(&args, "t PATH"),
                Err("usage: syrupctl t PATH".to_string())
            );
        }
    }

    #[test]
    fn json_arrays_join_without_whitespace() {
        assert_eq!(json_array(Vec::new()), "[]");
        assert_eq!(json_array(["1".to_string()]), "[1]");
        assert_eq!(
            json_array(argv(&["{}", "null", "\"a\""])),
            "[{},null,\"a\"]"
        );
    }

    /// One argv word: a flag under test, a number, or printable soup.
    fn word() -> impl Strategy<Value = String> {
        (0u8..5, any::<u64>(), "\\PC{0,6}").prop_map(|(kind, n, soup)| match kind {
            0 => "--requests".to_string(),
            1 => "--shards".to_string(),
            2 => n.to_string(),
            3 => (n % 3).to_string(),
            _ => soup,
        })
    }

    proptest! {
        /// Whatever the command line, the valued-flag parser returns — no
        /// panic — and its answer is the one the flag's first occurrence
        /// dictates: the default only when absent, the number when the
        /// next word is one, and otherwise an error naming the flag and
        /// the offending text.
        #[test]
        fn flag_parsing_is_total_and_exact(args in prop::collection::vec(word(), 0..8)) {
            for flag in ["--requests", "--shards"] {
                let number = num_flag(&args, flag, 64usize);
                let positive = positive_flag(&args, flag, 64usize);
                match args.iter().position(|a| a == flag).map(|i| args.get(i + 1)) {
                    None => {
                        prop_assert_eq!(number, Ok(64));
                        prop_assert_eq!(positive, Ok(64));
                    }
                    Some(None) => {
                        prop_assert_eq!(number, Err(format!("{flag} requires a value")));
                        prop_assert_eq!(positive, Err(format!("{flag} requires a value")));
                    }
                    Some(Some(text)) => {
                        let parsed = text.parse::<usize>().ok();
                        prop_assert_eq!(
                            number,
                            parsed.map_or_else(|| not_a("number", flag, text), Ok)
                        );
                        prop_assert_eq!(
                            positive,
                            parsed
                                .filter(|&n| n > 0)
                                .map_or_else(|| not_a("positive number", flag, text), Ok)
                        );
                    }
                }
            }
        }
    }
}
