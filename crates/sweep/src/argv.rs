//! The one command-line grammar of the harness binaries.
//!
//! A tool takes each flag it knows out of an [`Argv`], then its
//! positionals; whatever is left is a usage error, so no argument is
//! silently ignored. A flag's value is `--flag value` or `--flag=value`
//! (the next argument is a value unless it starts with `--`); a flag
//! given twice keeps its last value; a list is comma-separated.

use std::str::FromStr;

/// The arguments a tool has not taken yet.
pub struct Argv(Vec<String>);

impl Argv {
    /// Read `args` with `read`, then reject any argument it left.
    pub fn parse<T>(
        args: impl IntoIterator<Item = impl ToString>,
        read: impl FnOnce(&mut Argv) -> Result<T, String>,
    ) -> Result<T, String> {
        let mut argv = Argv(args.into_iter().map(|a| a.to_string()).collect());
        let parsed = read(&mut argv)?;
        match argv.0.first() {
            None => Ok(parsed),
            Some(a) if a.starts_with('-') => Err(format!("unknown flag '{a}'")),
            Some(a) => Err(format!("unexpected argument '{a}'")),
        }
    }

    /// Take every `flag` out: `Some(value)` for `flag=value`, or for
    /// `flag value` when `valued`; `None` for a bare `flag`.
    fn take(&mut self, flag: &str, valued: bool) -> Option<Option<String>> {
        let (mut found, mut i) = (None, 0);
        while i < self.0.len() {
            let inline = self.0[i].strip_prefix(flag).and_then(|v| v.strip_prefix('='));
            if self.0[i] == flag {
                self.0.remove(i);
                let next = valued && self.0.get(i).is_some_and(|v| !v.starts_with("--"));
                found = Some(next.then(|| self.0.remove(i)));
            } else if let Some(v) = inline.filter(|_| valued) {
                found = Some(Some(v.to_string()));
                self.0.remove(i);
            } else {
                i += 1;
            }
        }
        found
    }

    /// Whether the bare switch `flag` was given.
    pub fn switch(&mut self, flag: &str) -> bool {
        self.take(flag, false).is_some()
    }

    /// The value of `flag`, parsed; a bare `flag` needs a value.
    pub fn value<T: FromStr>(&mut self, flag: &str) -> Result<Option<T>, String> {
        self.value_or(flag, None)
    }

    /// The value of `flag`, parsed; a bare `flag` stands for `bare`, and
    /// needs a value when that is `None`.
    pub fn value_or<T: FromStr>(
        &mut self,
        flag: &str,
        bare: Option<T>,
    ) -> Result<Option<T>, String> {
        match self.take(flag, true) {
            None => Ok(None),
            Some(None) => bare.map(Some).ok_or_else(|| format!("{flag} needs a value")),
            Some(Some(v)) => {
                v.parse().map(Some).map_err(|_| format!("malformed {flag} value '{v}'"))
            }
        }
    }

    /// The comma-separated entries of `flag`, each parsed.
    pub fn list<T: FromStr>(&mut self, flag: &str) -> Result<Option<Vec<T>>, String> {
        let parse = |p: &str| p.trim().parse().map_err(|_| format!("malformed {flag} entry '{p}'"));
        self.value::<String>(flag)?.map(|v| v.split(',').map(parse).collect()).transpose()
    }

    /// Apply `--jobs N` (0 counts as 1) process-wide; the sweep width
    /// [`crate::jobs`]. Without `--jobs`, a set `OMPSS_BENCH_JOBS` that
    /// is not a positive integer is an error.
    pub fn jobs(&mut self) -> Result<usize, String> {
        match self.value::<usize>("--jobs")? {
            Some(n) => {
                crate::JOBS.store(n.max(1), std::sync::atomic::Ordering::Relaxed);
                Ok(n.max(1))
            }
            None => match crate::env_jobs() {
                Some(Err(e)) => Err(e),
                _ => Ok(crate::jobs()),
            },
        }
    }

    /// Take the arguments that are not flags, in order.
    pub fn positionals(&mut self) -> Vec<String> {
        let (flags, positionals) =
            std::mem::take(&mut self.0).into_iter().partition(|a| a.starts_with('-'));
        self.0 = flags;
        positionals
    }
}

/// This process's command line, read by `read` with [`Argv::parse`].
/// `--help` or `-h` prints `usage` to stderr and exits 0; an error
/// prints `{tool}: {error}; {usage}` and exits 2.
pub fn read_args<T>(
    tool: &str,
    usage: &str,
    read: impl FnOnce(&mut Argv) -> Result<T, String>,
) -> T {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("{usage}");
        std::process::exit(0);
    }
    Argv::parse(args, read).unwrap_or_else(|e| {
        eprintln!("{tool}: {e}; {usage}");
        std::process::exit(2);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeds(args: &[&str]) -> Result<Option<Vec<u64>>, String> {
        Argv::parse(args, |a| a.list("--seeds"))
    }

    #[test]
    fn a_value_is_the_next_argument_or_follows_an_equals_sign() {
        assert_eq!(Argv::parse(["--nodes", "3"], |a| a.value("--nodes")), Ok(Some(3u32)));
        assert_eq!(Argv::parse(["--nodes=3"], |a| a.value("--nodes")), Ok(Some(3u32)));
        assert_eq!(Argv::parse(["--n=1", "--n", "2"], |a| a.value("--n")), Ok(Some(2u32)));
        assert_eq!(Argv::parse(Vec::<String>::new(), |a| a.value::<u32>("--n")), Ok(None));
        assert_eq!(Argv::parse(["--soak"], |a| a.value_or("--soak", Some(500))), Ok(Some(500)));
        assert_eq!(
            Argv::parse(["--n", "x"], |a| a.value::<u32>("--n")),
            Err("malformed --n value 'x'".into())
        );
    }

    #[test]
    fn a_missing_value_is_named() {
        assert_eq!(seeds(&["--seeds"]), Err("--seeds needs a value".into()));
        assert_eq!(seeds(&["--seeds", "--all"]), Err("--seeds needs a value".into()));
        assert_eq!(
            Argv::parse(["--a", "--b"], |a| Ok((a.switch("--b"), a.value::<u32>("--a")?)))
                .unwrap_err(),
            "--a needs a value"
        );
    }

    #[test]
    fn lists_split_on_commas_and_name_a_malformed_entry() {
        assert_eq!(seeds(&["--seeds", "7, 9"]), Ok(Some(vec![7, 9])));
        assert_eq!(seeds(&["--seeds=1,2"]), Ok(Some(vec![1, 2])));
        assert_eq!(seeds(&["--seeds", "1,2.7"]), Err("malformed --seeds entry '2.7'".into()));
        assert_eq!(seeds(&["--seeds", "1,,2"]), Err("malformed --seeds entry ''".into()));
    }

    #[test]
    fn an_argument_nobody_took_is_an_error() {
        assert_eq!(seeds(&["--verbose"]), Err("unknown flag '--verbose'".into()));
        assert_eq!(seeds(&["stream"]), Err("unexpected argument 'stream'".into()));
        let switch = |args: &[&str]| Argv::parse(args, |a| Ok(a.switch("--check")));
        assert_eq!(switch(&["--check"]), Ok(true));
        assert_eq!(switch(&["--check=1"]), Err("unknown flag '--check=1'".into()));
        let apps = Argv::parse(["--churn", "perlin", "stream"], |a| {
            Ok((a.switch("--churn"), a.positionals()))
        });
        assert_eq!(apps, Ok((true, vec!["perlin".to_string(), "stream".to_string()])));
    }

    #[test]
    fn jobs_variants() {
        let jobs = |args: &[&str]| Argv::parse(args, |a| Ok((a.jobs()?, a.positionals())));
        assert_eq!(jobs(&["--jobs", "3", "app"]), Ok((3, vec!["app".to_string()])));
        assert_eq!(jobs(&["--jobs=5"]), Ok((5, vec![])));
        for bad in [&["--jobs"][..], &["--jobs", "x"], &["--jobs="], &["app", "--jobs=-2"]] {
            let err = jobs(bad).expect_err(&format!("{bad:?} must be rejected"));
            assert!(err.contains("--jobs "), "{bad:?}: {err}");
        }
        crate::JOBS.store(0, std::sync::atomic::Ordering::Relaxed); // unset again
    }

    #[test]
    fn a_bad_jobs_variable_is_an_error_unless_jobs_is_given() {
        // The only test in this binary that touches the environment.
        let jobs = |args: &[&str]| Argv::parse(args, |a| a.jobs());
        std::env::set_var("OMPSS_BENCH_JOBS", "abc");
        let bad = jobs(&[]);
        let overridden = jobs(&["--jobs", "2"]);
        std::env::set_var("OMPSS_BENCH_JOBS", "0");
        let zero = jobs(&[]);
        std::env::remove_var("OMPSS_BENCH_JOBS");
        let unset = jobs(&[]);
        let err = bad.expect_err("OMPSS_BENCH_JOBS=abc must be rejected");
        assert!(err.contains("OMPSS_BENCH_JOBS") && err.contains("'abc'"), "{err}");
        assert!(zero.expect_err("OMPSS_BENCH_JOBS=0 must be rejected").contains("'0'"));
        assert_eq!(overridden, Ok(2));
        assert!(unset.is_ok());
        crate::JOBS.store(0, std::sync::atomic::Ordering::Relaxed); // unset again
    }
}
