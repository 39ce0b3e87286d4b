//! Minimal argument parsing helpers (no external dependencies).

/// A parsed command line: positional arguments plus `--flag`/`--key value`
/// options.
#[derive(Debug, Clone, Default)]
pub struct Parsed {
    positional: Vec<String>,
    flags: Vec<String>,
    options: Vec<(String, String)>,
}

/// Parses one command's arguments against its grammar: `value_keys` take
/// a value, `flag_keys` are booleans, and at most `max_pos` positional
/// arguments are accepted. Anything else — a misspelled or retired
/// option, a surplus positional — is an error, so a typo never runs
/// silently with the default it meant to override.
pub fn parse(
    argv: &[String],
    value_keys: &[&str],
    flag_keys: &[&str],
    max_pos: usize,
) -> Result<Parsed, String> {
    let mut out = Parsed::default();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let Some(key) = a.strip_prefix("--").or_else(|| a.strip_prefix('-')) else {
            if out.positional.len() == max_pos {
                return Err(format!("unexpected argument `{a}`"));
            }
            out.positional.push(a.clone());
            continue;
        };
        if value_keys.contains(&key) {
            let v = it.next().ok_or_else(|| format!("{a} needs a value"))?;
            out.options.push((key.to_string(), v.clone()));
        } else if flag_keys.contains(&key) {
            out.flags.push(key.to_string());
        } else {
            return Err(format!("unknown option `{a}`"));
        }
    }
    Ok(out)
}

impl Parsed {
    /// The `i`-th positional argument.
    pub fn pos(&self, i: usize) -> Option<&str> {
        self.positional.get(i).map(String::as_str)
    }

    /// Whether a boolean flag is present.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// The value of `--key`, if given.
    pub fn opt(&self, name: &str) -> Option<&str> {
        self.options
            .iter()
            .rev()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The value of `--key` parsed as `T`.
    pub fn opt_parse<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.opt(name) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("--{name}: cannot parse `{v}`")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn positional_flags_and_options() {
        let p = parse(
            &argv(&["a.bench", "--times", "--lg", "500", "-o", "x.txt"]),
            &["lg", "o"],
            &["times"],
            1,
        )
        .unwrap();
        assert_eq!(p.pos(0), Some("a.bench"));
        assert_eq!(p.pos(1), None);
        assert!(p.flag("times"));
        assert_eq!(p.opt("lg"), Some("500"));
        assert_eq!(p.opt_parse::<usize>("lg").unwrap(), Some(500));
        assert_eq!(p.opt("o"), Some("x.txt"));
    }

    #[test]
    fn missing_value_is_error() {
        assert!(parse(&argv(&["--lg"]), &["lg"], &[], 0).is_err());
    }

    #[test]
    fn bad_parse_is_error() {
        let p = parse(&argv(&["--lg", "abc"]), &["lg"], &[], 0).unwrap();
        assert!(p.opt_parse::<usize>("lg").is_err());
    }

    #[test]
    fn last_option_wins() {
        let p = parse(&argv(&["--lg", "1", "--lg", "2"]), &["lg"], &[], 0).unwrap();
        assert_eq!(p.opt("lg"), Some("2"));
    }

    #[test]
    fn unknown_options_and_surplus_positionals_are_errors() {
        let err = parse(&argv(&["a", "--lgg", "64"]), &["lg"], &["times"], 1).unwrap_err();
        assert_eq!(err, "unknown option `--lgg`");
        let err = parse(&argv(&["a", "-x"]), &["lg"], &["times"], 1).unwrap_err();
        assert_eq!(err, "unknown option `-x`");
        let err = parse(&argv(&["a", "b", "c"]), &[], &[], 2).unwrap_err();
        assert_eq!(err, "unexpected argument `c`");
        // A value is consumed whole, even when it looks like an option.
        let p = parse(&argv(&["--o", "--x"]), &["o"], &[], 0).unwrap();
        assert_eq!(p.opt("o"), Some("--x"));
    }
}
