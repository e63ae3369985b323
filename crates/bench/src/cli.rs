//! The one argument parser of the bench binaries.
//!
//! Every binary takes an optional positional measurement scale factor plus
//! the flags it declares; anything else — an unknown flag, a flag missing
//! its value, a scale factor that does not parse — prints usage and exits
//! 2. The figure binaries declare [`TRACE`] (turn on observability and
//! write the recorded spans as Chrome trace-event JSON: open the file in
//! Perfetto, ui.perfetto.dev, to see the simulated job timelines); `fig7`
//! and `fig8` also declare [`FAULTS`] (rerun the figure's queries under the
//! seeded `combined` fault plan).

use clyde_common::Obs;
use std::sync::Arc;

/// A flag a binary accepts.
#[derive(Debug, Clone, Copy)]
pub enum Flag {
    /// `--name` on its own.
    Switch(&'static str),
    /// `--name <n>`: an unsigned integer.
    Int(&'static str),
    /// `--name <metavar>`: any string.
    Value(&'static str, &'static str),
}

impl Flag {
    fn name(&self) -> &'static str {
        match self {
            Flag::Switch(n) | Flag::Int(n) | Flag::Value(n, _) => n,
        }
    }
}

/// `--trace <out.json>`: see [`Args::obs`] and [`Args::write_trace`].
pub const TRACE: Flag = Flag::Value("--trace", "out.json");

/// `--faults <seed>`: the seed of the `combined` fault plan.
pub const FAULTS: Flag = Flag::Int("--faults");

/// Parsed arguments: the scale factor, if given, and every flag seen
/// (the last occurrence of a repeated flag wins).
#[derive(Debug)]
pub struct Args {
    sf: Option<f64>,
    given: Vec<(&'static str, Option<String>)>,
}

impl Args {
    /// Parse `std::env::args` against `flags`; on an error print usage
    /// and exit 2 (`--help` prints usage and exits 0).
    pub fn parse(bin: &str, flags: &[Flag]) -> Args {
        Args::parse_from(std::env::args().skip(1), flags).unwrap_or_else(|err| {
            if !err.is_empty() {
                eprintln!("error: {err}");
            }
            eprintln!("{}", usage(bin, flags));
            std::process::exit(if err.is_empty() { 0 } else { 2 });
        })
    }

    /// Parse `args` (without the program name) against `flags`. `Err`
    /// carries the error message, or is empty when help was asked for.
    pub fn parse_from(
        args: impl IntoIterator<Item = String>,
        flags: &[Flag],
    ) -> Result<Args, String> {
        let mut out = Args {
            sf: None,
            given: Vec::new(),
        };
        let mut args = args.into_iter();
        while let Some(a) = args.next() {
            if a == "--help" || a == "-h" {
                return Err(String::new());
            }
            if let Some(flag) = flags.iter().find(|f| f.name() == a) {
                let value = match flag {
                    Flag::Switch(_) => None,
                    Flag::Int(name) => match args.next().filter(|v| v.parse::<u64>().is_ok()) {
                        Some(v) => Some(v),
                        None => return Err(format!("{name} needs an unsigned integer")),
                    },
                    Flag::Value(name, metavar) => match args.next() {
                        Some(v) => Some(v),
                        None => return Err(format!("{name} needs <{metavar}>")),
                    },
                };
                out.given.retain(|(n, _)| *n != flag.name());
                out.given.push((flag.name(), value));
                continue;
            }
            if a.starts_with('-') && a.parse::<f64>().is_err() {
                return Err(format!("unknown flag `{a}`"));
            }
            match a.parse::<f64>() {
                Ok(sf) if sf > 0.0 && sf.is_finite() => out.sf = Some(sf),
                _ => return Err(format!("`{a}` is not a positive scale factor")),
            }
        }
        Ok(out)
    }

    /// The scale factor, or `default` when none was given.
    pub fn sf_or(&self, default: f64) -> f64 {
        self.sf.unwrap_or(default)
    }

    fn get(&self, name: &str) -> Option<&Option<String>> {
        self.given.iter().find(|(n, _)| *n == name).map(|(_, v)| v)
    }

    /// Whether switch `name` was given.
    pub fn switch(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// The value of `name`, if given.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.get(name).and_then(|v| v.as_deref())
    }

    /// The integer value of `name`, if given (validated at parse time).
    pub fn int(&self, name: &str) -> Option<u64> {
        self.value(name).and_then(|v| v.parse().ok())
    }

    /// An enabled hub when `--trace` was given, the no-op hub otherwise.
    pub fn obs(&self) -> Arc<Obs> {
        if self.value("--trace").is_some() {
            Obs::enabled()
        } else {
            Obs::disabled()
        }
    }

    /// Write the recorded trace to the `--trace` path (no-op without one).
    pub fn write_trace(&self, obs: &Obs) {
        if let Some(path) = self.value("--trace") {
            std::fs::write(path, obs.chrome_trace()).expect("write trace file");
            eprintln!("wrote Chrome trace to {path} (load in ui.perfetto.dev)");
        }
    }
}

fn usage(bin: &str, flags: &[Flag]) -> String {
    let mut out = format!("usage: {bin} [SF]");
    for f in flags {
        match f {
            Flag::Switch(n) => out.push_str(&format!(" [{n}]")),
            Flag::Int(n) => out.push_str(&format!(" [{n} <n>]")),
            Flag::Value(n, metavar) => out.push_str(&format!(" [{n} <{metavar}>]")),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const FLAGS: [Flag; 3] = [
        Flag::Switch("--dump"),
        Flag::Int("--seed"),
        Flag::Value("--json", "path"),
    ];

    fn parse(args: &[&str]) -> Result<Args, String> {
        Args::parse_from(args.iter().map(|s| s.to_string()), &FLAGS)
    }

    #[test]
    fn declared_flags_and_sf_parse_in_any_order() {
        let a = parse(&["--seed", "7", "0.002", "--dump", "--json", "out.json"]).unwrap();
        assert_eq!(a.sf_or(0.01), 0.002);
        assert_eq!(a.int("--seed"), Some(7));
        assert!(a.switch("--dump"));
        assert_eq!(a.value("--json"), Some("out.json"));
        let a = parse(&[]).unwrap();
        assert_eq!(a.sf_or(0.01), 0.01);
        assert!(!a.switch("--dump") && a.value("--json").is_none());
    }

    #[test]
    fn unknown_flags_are_errors() {
        let err = parse(&["0.002", "--gaet", "BENCH_probe.json"]).unwrap_err();
        assert!(err.contains("unknown flag `--gaet`"), "{err}");
        assert!(parse(&["-x"]).is_err());
    }

    #[test]
    fn unparsable_scale_factors_are_errors() {
        for bad in ["abc", "0", "-1", "NaN", "inf", "0.01x"] {
            let err = parse(&[bad]).unwrap_err();
            assert!(err.contains("not a positive scale factor"), "{bad}: {err}");
        }
    }

    #[test]
    fn flag_values_are_checked() {
        assert!(parse(&["--seed", "x"]).unwrap_err().contains("--seed"));
        assert!(parse(&["--seed"]).unwrap_err().contains("--seed"));
        assert!(parse(&["--json"]).unwrap_err().contains("--json"));
        assert_eq!(parse(&["--help"]).unwrap_err(), "");
    }
}
