//! Minimal flag parsing for the `cachedse` binary.
//!
//! The grammar is small (`--flag value` pairs plus positionals), so this is
//! hand-rolled rather than pulling in a CLI dependency — see the dependency
//! policy in `DESIGN.md`.

use std::collections::HashMap;

/// Parsed command line: positionals in order, `--key value` options by name.
#[derive(Clone, Debug, Default)]
pub struct Args {
    positionals: Vec<String>,
    options: HashMap<String, String>,
    flags: Vec<String>,
}

/// Error produced while parsing or querying arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// `--option` appeared last with no value.
    MissingValue(String),
    /// A required option was not provided.
    Required(String),
    /// A value failed to parse.
    Invalid {
        /// The option's name.
        option: String,
        /// The unparsable text.
        value: String,
    },
    /// A required positional argument is missing.
    MissingPositional(&'static str),
    /// A positional argument beyond the command's count.
    Surplus(String),
    /// The command does not take this option.
    Unknown(String),
    /// The option was removed; the message says what replaced it.
    Retired(&'static str),
}

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::MissingValue(o) => write!(f, "option --{o} expects a value"),
            Self::Required(o) => write!(f, "option --{o} is required"),
            Self::Invalid { option, value } => {
                write!(f, "invalid value {value:?} for --{option}")
            }
            Self::MissingPositional(name) => write!(f, "missing <{name}> argument"),
            Self::Surplus(word) => {
                write!(f, "unexpected argument {word:?}; see `cachedse --help`")
            }
            Self::Unknown(o) => write!(f, "unknown option --{o}; see `cachedse --help`"),
            Self::Retired(message) => f.write_str(message),
        }
    }
}

impl std::error::Error for ArgError {}

/// Options that never take a value.
const BARE_FLAGS: [&str; 3] = ["verify", "quiet", "validate"];

/// Removed options and the messages that refuse them, on every command
/// and before any value is read: `check --model <trace>` names the
/// retirement instead of taking the trace path as a value.
const RETIRED: [(&str, &str); 5] = [
    (
        "engine",
        "--engine is retired: the engine is now chosen per trace \
         (`explore --format json` reports which one ran)",
    ),
    (
        "join",
        "--join is retired: serve runs as one node, and --store-dir keeps \
         its analyses across restarts",
    ),
    (
        "advertise",
        "--advertise is retired: serve runs as one node, and --store-dir \
         keeps its analyses across restarts",
    ),
    (
        "model",
        "check --model is retired: run the model scenarios with \
         RUSTFLAGS=\"--cfg cachedse_model\" cargo test -p cachedse \
         --test model_serve --test model_store",
    ),
    (
        "threads",
        "--threads is retired: one analysis runs on one thread; batch and \
         serve run --workers jobs at once",
    ),
];

impl Args {
    /// Parses raw arguments (without the program/subcommand names),
    /// accepting only the options named in `allowed` and at most
    /// `positionals` positional arguments.
    ///
    /// # Errors
    ///
    /// [`ArgError::Retired`] or [`ArgError::Unknown`] for an option outside
    /// `allowed`, [`ArgError::MissingValue`] if a value-taking option ends
    /// the line, [`ArgError::Surplus`] for the first positional past
    /// `positionals`.
    pub fn parse<I: IntoIterator<Item = String>>(
        raw: I,
        allowed: &[&str],
        positionals: usize,
    ) -> Result<Self, ArgError> {
        let mut args = Args::default();
        let mut iter = raw.into_iter();
        while let Some(arg) = iter.next() {
            let Some(name) = arg.strip_prefix("--") else {
                if args.positionals.len() == positionals {
                    return Err(ArgError::Surplus(arg));
                }
                args.positionals.push(arg);
                continue;
            };
            if let Some(&(_, message)) = RETIRED.iter().find(|(retired, _)| *retired == name) {
                return Err(ArgError::Retired(message));
            }
            if !allowed.contains(&name) {
                return Err(ArgError::Unknown(name.to_owned()));
            }
            if BARE_FLAGS.contains(&name) {
                args.flags.push(name.to_owned());
            } else {
                let value = iter
                    .next()
                    .ok_or_else(|| ArgError::MissingValue(name.to_owned()))?;
                args.options.insert(name.to_owned(), value);
            }
        }
        Ok(args)
    }

    /// The `idx`-th positional argument.
    ///
    /// # Errors
    ///
    /// [`ArgError::MissingPositional`] if absent.
    pub fn positional(&self, idx: usize, name: &'static str) -> Result<&str, ArgError> {
        self.positionals
            .get(idx)
            .map(String::as_str)
            .ok_or(ArgError::MissingPositional(name))
    }

    /// Whether a bare flag (e.g. `--verify`) was given.
    #[must_use]
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// An optional string option.
    #[must_use]
    pub fn opt_str(&self, name: &str) -> Option<&str> {
        self.options.get(name).map(String::as_str)
    }

    /// An optional parsed option.
    ///
    /// # Errors
    ///
    /// [`ArgError::Invalid`] if present but unparsable.
    pub fn opt<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, ArgError> {
        match self.options.get(name) {
            None => Ok(None),
            Some(v) => v.parse().map(Some).map_err(|_| ArgError::Invalid {
                option: name.to_owned(),
                value: v.clone(),
            }),
        }
    }

    /// A parsed option with a default.
    ///
    /// # Errors
    ///
    /// [`ArgError::Invalid`] if present but unparsable.
    pub fn opt_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, ArgError> {
        Ok(self.opt(name)?.unwrap_or(default))
    }

    /// A required parsed option.
    ///
    /// # Errors
    ///
    /// [`ArgError::Required`] if absent, [`ArgError::Invalid`] if
    /// unparsable.
    pub fn required<T: std::str::FromStr>(&self, name: &str) -> Result<T, ArgError> {
        self.opt(name)?
            .ok_or_else(|| ArgError::Required(name.to_owned()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALLOWED: [&str; 5] = ["depth", "assoc", "line-bits", "misses", "verify"];

    fn try_parse(line: &str) -> Result<Args, ArgError> {
        Args::parse(line.split_whitespace().map(str::to_owned), &ALLOWED, 1)
    }

    fn parse(line: &str) -> Args {
        try_parse(line).unwrap()
    }

    #[test]
    fn positionals_and_options() {
        let a = parse("trace.din --depth 64 --assoc 2");
        assert_eq!(a.positional(0, "file").unwrap(), "trace.din");
        assert_eq!(a.required::<u32>("depth").unwrap(), 64);
        assert_eq!(a.opt_or::<u32>("line-bits", 0).unwrap(), 0);
        assert!(!a.flag("verify"));
    }

    #[test]
    fn bare_flags() {
        let a = parse("t.din --verify --misses 10");
        assert!(a.flag("verify"));
        assert_eq!(a.required::<u64>("misses").unwrap(), 10);
    }

    #[test]
    fn missing_value_error() {
        let err = try_parse("--depth").unwrap_err();
        assert_eq!(err, ArgError::MissingValue("depth".to_owned()));
    }

    #[test]
    fn invalid_value_error() {
        let a = parse("--depth four");
        let err = a.required::<u32>("depth").unwrap_err();
        assert!(matches!(err, ArgError::Invalid { .. }));
        assert_eq!(err.to_string(), "invalid value \"four\" for --depth");
    }

    #[test]
    fn missing_positional_error() {
        let a = parse("--depth 4");
        assert_eq!(
            a.positional(0, "trace").unwrap_err(),
            ArgError::MissingPositional("trace")
        );
    }

    #[test]
    fn surplus_positional_is_named() {
        let err = try_parse("a.din --depth 4 b.din c.din").unwrap_err();
        assert_eq!(err, ArgError::Surplus("b.din".to_owned()));
        assert_eq!(
            err.to_string(),
            "unexpected argument \"b.din\"; see `cachedse --help`"
        );
        let none = Args::parse(["x".to_owned()], &ALLOWED, 0).unwrap_err();
        assert_eq!(none, ArgError::Surplus("x".to_owned()));
    }

    #[test]
    fn required_missing_error() {
        let a = parse("x");
        assert_eq!(
            a.required::<u32>("depth").unwrap_err(),
            ArgError::Required("depth".to_owned())
        );
    }
}
