//! The argv cursor every binary of this crate parses its flags with.
//! Every error names the flag it belongs to; [`parse_or_exit`] prints it
//! above the usage text and exits 2.

use std::fmt::Display;
use std::str::FromStr;

use parallax_workloads::{BenchmarkId, RunConfig};

/// The usage line of a [`RunConfig`] spec, for binaries that take one.
pub const SPEC_USAGE: &str = "SPEC: threads=N,simd=scalar|sse2|avx2,sleep=on|off,warm=on|off,\
                              digest=on|off (every key optional)";

/// A cursor over a command line that remembers the flag it last handed
/// out, so the value accessors can name it in their errors.
#[derive(Debug)]
pub struct Flags {
    args: std::vec::IntoIter<String>,
    flag: String,
}

impl Flags {
    /// A cursor over `args` (the command line without the program name).
    pub fn new(args: impl IntoIterator<Item = String>) -> Flags {
        Flags {
            args: args.into_iter().collect::<Vec<_>>().into_iter(),
            flag: String::new(),
        }
    }

    /// The next argument, remembered as the current flag.
    pub fn next_flag(&mut self) -> Option<String> {
        self.flag = self.args.next()?;
        Some(self.flag.clone())
    }

    /// The current flag's value.
    pub fn value(&mut self) -> Result<String, String> {
        self.args
            .next()
            .ok_or_else(|| format!("{} requires a value", self.flag))
    }

    /// The current flag's value, parsed.
    pub fn parse<T: FromStr>(&mut self) -> Result<T, String>
    where
        T::Err: Display,
    {
        let value = self.value()?;
        value
            .parse()
            .map_err(|e| format!("{} {value:?}: {e}", self.flag))
    }

    /// The current flag's value as a scene, by name or abbreviation; the
    /// error lists every valid spelling.
    pub fn scene(&mut self) -> Result<BenchmarkId, String> {
        let name = self.value()?;
        let by_abbrev = |b: &BenchmarkId| b.abbrev().eq_ignore_ascii_case(&name);
        BenchmarkId::by_name(&name)
            .or_else(|| BenchmarkId::ALL.into_iter().find(by_abbrev))
            .ok_or_else(|| {
                let valid: Vec<String> = BenchmarkId::ALL
                    .iter()
                    .map(|b| format!("{} ({})", b.name(), b.abbrev()))
                    .collect();
                format!(
                    "{}: unknown scene {name:?}; valid scenes: {}",
                    self.flag,
                    valid.join(", ")
                )
            })
    }

    /// Applies the current flag's value, a [`RunConfig`] spec, on top of
    /// `run`.
    pub fn config(&mut self, run: &mut RunConfig) -> Result<(), String> {
        let spec = self.value()?;
        run.apply(&spec).map_err(|e| format!("{}: {e}", self.flag))
    }

    /// The error for a flag the binary does not know.
    pub fn unknown(&self) -> String {
        format!("unknown flag {:?}", self.flag)
    }
}

/// Runs `parse` over the process's command line; on error prints it and
/// `usage` to stderr and exits 2.
pub fn parse_or_exit<T>(usage: &str, parse: impl FnOnce(&mut Flags) -> Result<T, String>) -> T {
    parse(&mut Flags::new(std::env::args().skip(1))).unwrap_or_else(|e| {
        eprintln!("error: {e}\n{usage}");
        std::process::exit(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(args: &[&str]) -> Flags {
        Flags::new(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn values_parse_and_errors_name_the_flag() {
        let mut f = flags(&["--steps", "12", "--scene", "mix", "--config", "threads=2"]);
        assert_eq!(f.next_flag().as_deref(), Some("--steps"));
        assert_eq!(f.parse::<u64>(), Ok(12));
        f.next_flag();
        assert_eq!(f.scene(), Ok(BenchmarkId::Mix));
        f.next_flag();
        let mut run = RunConfig::parse("sleep=on").unwrap();
        f.config(&mut run).unwrap();
        assert_eq!((run.threads, run.sleep), (2, true));
        assert_eq!(f.next_flag(), None);

        let mut f = flags(&[
            "--steps",
            "x",
            "--scene",
            "Nope",
            "--config",
            "simd=neon",
            "--scale",
        ]);
        f.next_flag();
        let err = f.parse::<u64>().unwrap_err();
        assert!(err.contains("--steps") && err.contains("\"x\""), "{err}");
        f.next_flag();
        let err = f.scene().unwrap_err();
        assert!(
            err.contains("\"Nope\"") && err.contains("Mix (Mix)"),
            "{err}"
        );
        f.next_flag();
        let err = f.config(&mut run).unwrap_err();
        assert!(
            err.contains("--config") && err.contains("\"neon\""),
            "{err}"
        );
        f.next_flag();
        assert_eq!(f.value().unwrap_err(), "--scale requires a value");
        assert_eq!(f.unknown(), "unknown flag \"--scale\"");
    }
}
