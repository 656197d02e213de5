//! Argument handling shared by the `experiments` and `campaign`
//! binaries. A usage error — an unknown flag, or a flag whose value is
//! missing, unparsable or out of range — prints one line naming the
//! flag and exits with status 2. It never panics.

use std::fmt::Display;
use std::str::FromStr;

/// Prints `msg` as one line on stderr and exits with status 2.
pub fn usage_error(msg: impl Display) -> ! {
    eprintln!("{msg}");
    std::process::exit(2)
}

/// A cursor over a binary's command-line arguments.
pub struct Args {
    args: Vec<String>,
    next: usize,
}

impl Args {
    /// The process's arguments, program name skipped.
    pub fn from_env() -> Args {
        Args {
            args: std::env::args().skip(1).collect(),
            next: 0,
        }
    }

    /// The next argument, or `None` once all are consumed.
    pub fn next_arg(&mut self) -> Option<String> {
        let arg = self.args.get(self.next).cloned();
        self.next += 1;
        arg
    }

    /// The value following `flag`; a missing one is a usage error.
    pub fn value(&mut self, flag: &str) -> String {
        self.next_arg()
            .unwrap_or_else(|| usage_error(format!("{flag} needs a value")))
    }

    /// The value following `flag`, parsed as a `T` that `valid`
    /// accepts. A missing, unparsable or rejected value is a usage
    /// error that says the flag takes `expected`.
    pub fn parsed<T: FromStr>(
        &mut self,
        flag: &str,
        expected: &str,
        valid: impl Fn(&T) -> bool,
    ) -> T {
        let raw = self.value(flag);
        match raw.parse::<T>() {
            Ok(value) if valid(&value) => value,
            _ => usage_error(format!("{flag} takes {expected}, not '{raw}'")),
        }
    }
}
