//! The one flag parser behind `pba-run`.
//!
//! Each command declares a [`Spec`]: the flags it accepts, which of them
//! take a value, and how many bare arguments (names, claim ids) it takes.
//! [`Flags::parse`] reads the command line once against that table, and
//! the typed getters read the result. Every command reports a missing
//! value, a bad value and an unknown flag in the same words. A repeated
//! flag keeps its last value, and the argument after a value flag is
//! taken verbatim, even when it starts with `-`.

use std::fmt::Display;
use std::str::FromStr;

/// One flag a command accepts.
#[derive(Debug, Clone, Copy)]
pub struct Flag {
    /// The flag as typed, e.g. `--n`.
    pub name: &'static str,
    /// Whether the next argument is the flag's value.
    pub takes_value: bool,
}

impl Flag {
    /// A flag followed by its value, e.g. `--n 4096`.
    pub const fn value(name: &'static str) -> Self {
        Flag {
            name,
            takes_value: true,
        }
    }

    /// A flag that stands alone, e.g. `--parallel`.
    pub const fn switch(name: &'static str) -> Self {
        Flag {
            name,
            takes_value: false,
        }
    }
}

/// What one command accepts on its command line.
#[derive(Debug)]
pub struct Spec {
    /// The command as the usage text spells it, e.g. `serve --listen`;
    /// error messages name it.
    pub command: &'static str,
    /// The accepted flags, in groups so commands can share one.
    pub flags: &'static [&'static [Flag]],
    /// How many bare arguments the command takes.
    pub positionals: usize,
}

impl Spec {
    /// Every accepted flag.
    pub fn all_flags(&self) -> impl Iterator<Item = &Flag> {
        self.flags.iter().flat_map(|group| group.iter())
    }

    fn flag(&self, name: &str) -> Option<&Flag> {
        self.all_flags().find(|f| f.name == name)
    }
}

/// A command line parsed against its [`Spec`].
#[derive(Debug)]
pub struct Flags {
    spec: &'static Spec,
    /// The flags given, in order, with their values.
    given: Vec<(&'static str, Option<String>)>,
    positionals: Vec<String>,
}

impl Flags {
    /// Parse `args` (the words after the command) against `spec`.
    pub fn parse(spec: &'static Spec, args: &[String]) -> Result<Self, String> {
        let mut flags = Flags {
            spec,
            given: Vec::new(),
            positionals: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if let Some(flag) = spec.flag(arg) {
                let value = if flag.takes_value {
                    let v = it
                        .next()
                        .ok_or_else(|| format!("{} needs a value", flag.name))?;
                    Some(v.clone())
                } else {
                    None
                };
                flags.given.push((flag.name, value));
            } else if arg.starts_with('-') {
                return Err(format!("unknown flag '{arg}' for {}", spec.command));
            } else if flags.positionals.len() < spec.positionals {
                flags.positionals.push(arg.clone());
            } else {
                return Err(format!("unexpected argument '{arg}' for {}", spec.command));
            }
        }
        Ok(flags)
    }

    /// The bare arguments, in order.
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }

    /// Whether the switch `flag` was given.
    pub fn switch(&self, flag: &str) -> bool {
        self.last(flag, false).is_some()
    }

    /// The value of `flag` run through `parse`, `None` when the flag is
    /// absent. `parse`'s error is reported as it is.
    pub fn opt_with<T>(
        &self,
        flag: &str,
        parse: impl FnOnce(&str) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        self.last(flag, true).flatten().map(parse).transpose()
    }

    /// The value of `flag` parsed as a `T`, `None` when the flag is absent.
    pub fn opt<T: FromStr>(&self, flag: &str) -> Result<Option<T>, String>
    where
        T::Err: Display,
    {
        self.opt_with(flag, |v| {
            v.parse().map_err(|e| format!("bad {flag} '{v}': {e}"))
        })
    }

    /// The value of `flag` parsed as a `T`, `default` when the flag is
    /// absent.
    pub fn get<T: FromStr>(&self, flag: &str, default: T) -> Result<T, String>
    where
        T::Err: Display,
    {
        Ok(self.opt(flag)?.unwrap_or(default))
    }

    /// The last given of the mutually exclusive `flags`, with its value.
    pub fn last_of(&self, flags: &[&str]) -> Option<(&'static str, Option<&str>)> {
        self.given
            .iter()
            .rev()
            .find(|(name, _)| flags.contains(name))
            .map(|(name, value)| (*name, value.as_deref()))
    }

    /// The last occurrence of `flag`: `Some(None)` for a switch.
    fn last(&self, flag: &str, takes_value: bool) -> Option<Option<&str>> {
        debug_assert!(
            self.spec
                .flag(flag)
                .is_some_and(|f| f.takes_value == takes_value),
            "{flag} is not a {} flag of {}",
            if takes_value { "value" } else { "switch" },
            self.spec.command
        );
        self.last_of(&[flag]).map(|(_, value)| value)
    }
}

/// `"did you mean 'X'? "` for the candidate closest to `input` (ignoring
/// case) when it is within two edits, `""` otherwise. Ties go to the
/// candidate that sorts first.
pub fn suggest<'a>(input: &str, candidates: impl IntoIterator<Item = &'a str>) -> String {
    let lowered = input.to_lowercase();
    candidates
        .into_iter()
        .map(|c| (edit_distance(&lowered, c), c))
        .min()
        .filter(|&(d, _)| d <= 2)
        .map(|(_, c)| format!("did you mean '{c}'? "))
        .unwrap_or_default()
}

/// Levenshtein distance.
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, &ca) in a.iter().enumerate() {
        let mut cur = Vec::with_capacity(b.len() + 1);
        cur.push(i + 1);
        for (j, &cb) in b.iter().enumerate() {
            let cost = usize::from(ca != cb);
            cur.push((prev[j] + cost).min(prev[j + 1] + 1).min(cur[j] + 1));
        }
        prev = cur;
    }
    prev[b.len()]
}

#[cfg(test)]
mod tests {
    use super::*;

    static DEMO: Spec = Spec {
        command: "demo",
        flags: &[
            &[Flag::value("--n"), Flag::switch("--parallel")],
            &[Flag::value("--seed"), Flag::switch("--local")],
        ],
        positionals: 1,
    };

    fn parse(args: &[&str]) -> Result<Flags, String> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        Flags::parse(&DEMO, &args)
    }

    #[test]
    fn values_switches_and_positionals() {
        let f = parse(&["name", "--n", "64", "--parallel"]).unwrap();
        assert_eq!(f.positionals(), ["name"]);
        assert_eq!(f.get("--n", 1u32), Ok(64));
        assert_eq!(f.get("--seed", 9u64), Ok(9));
        assert!(f.switch("--parallel"));
        assert!(!f.switch("--local"));
        assert_eq!(f.opt::<u64>("--seed"), Ok(None));
    }

    #[test]
    fn repeated_flag_keeps_the_last_value() {
        let f = parse(&["--n", "1", "--n", "2"]).unwrap();
        assert_eq!(f.get("--n", 0u32), Ok(2));
    }

    #[test]
    fn values_are_taken_verbatim() {
        let f = parse(&["--seed", "--n", "--n", "-3"]).unwrap();
        assert_eq!(f.opt::<String>("--seed"), Ok(Some("--n".into())));
        assert_eq!(f.get("--n", 0i64), Ok(-3));
    }

    #[test]
    fn last_of_picks_the_latest_of_a_group() {
        let f = parse(&["--local", "--seed", "4", "--parallel"]).unwrap();
        assert_eq!(
            f.last_of(&["--local", "--parallel"]),
            Some(("--parallel", None))
        );
        assert_eq!(
            f.last_of(&["--seed", "--local"]),
            Some(("--seed", Some("4")))
        );
        assert_eq!(f.last_of(&["--n"]), None);
    }

    #[test]
    fn errors_name_the_flag() {
        assert_eq!(
            parse(&["--wire", "json"]).unwrap_err(),
            "unknown flag '--wire' for demo"
        );
        assert_eq!(parse(&["--n"]).unwrap_err(), "--n needs a value");
        assert_eq!(
            parse(&["a", "b"]).unwrap_err(),
            "unexpected argument 'b' for demo"
        );
        let f = parse(&["--n", "many"]).unwrap();
        assert_eq!(
            f.get("--n", 0u32).unwrap_err(),
            "bad --n 'many': invalid digit found in string"
        );
    }

    #[test]
    fn custom_parsers_report_their_own_error() {
        let f = parse(&["--n", "x"]).unwrap();
        let got = f.opt_with("--n", |v| Err::<u8, _>(format!("no {v}")));
        assert_eq!(got, Err("no x".into()));
    }

    #[test]
    fn suggest_within_two_edits() {
        assert_eq!(
            suggest("SMAL", ["small", "medium"]),
            "did you mean 'small'? "
        );
        assert_eq!(suggest("huge", ["small", "medium"]), "");
        assert_eq!(edit_distance("kitten", "sitting"), 3);
    }
}
