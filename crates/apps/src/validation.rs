//! The OmpSs version of every application at validation scale, by name:
//! the one table the checking harnesses (`verify`, `mc`, `chaos`,
//! `serve`) drive. Each run uses real byte backing and returns its
//! output in [`AppRun::check`].

use ompss_runtime::{RunError, RuntimeConfig};

use crate::common::AppRun;
use crate::matmul::{self, ompss::InitMode, MatmulParams};
use crate::nbody::{self, NbodyParams};
use crate::perlin::{self, PerlinParams};
use crate::stream::{self, StreamParams};

/// The applications, in report order.
pub const APPS: [&str; 4] = ["matmul", "stream", "nbody", "perlin"];

/// The [`APPS`] entry `name`: how every harness resolves an app a user
/// names, on its command line or in a job spec.
pub fn app(name: &str) -> Result<&'static str, String> {
    let known = APPS.into_iter().find(|&a| a == name);
    known.ok_or_else(|| format!("unknown app '{name}'; expected one of {APPS:?}"))
}

/// Each of `names` resolved by [`app`]; every app when `names` is empty.
pub fn apps(names: &[String]) -> Result<Vec<&'static str>, String> {
    if names.is_empty() {
        Ok(APPS.to_vec())
    } else {
        names.iter().map(|n| app(n)).collect()
    }
}

/// Run application `name` (one of [`APPS`]) at validation scale under
/// `cfg`, surfacing the structured [`RunError`] — the form harnesses
/// match on (`is_retryable`, variant classification) instead of parsing
/// panic strings.
///
/// # Panics
///
/// If `name` is not in [`APPS`]: callers resolve names against the
/// table where they enter the program.
pub fn try_run(name: &str, cfg: RuntimeConfig) -> Result<AppRun, RunError> {
    match name {
        "matmul" => matmul::ompss::try_run(cfg, MatmulParams::validate(), InitMode::Smp),
        "stream" => stream::ompss::try_run(cfg, StreamParams::validate()),
        "nbody" => nbody::ompss::try_run(cfg, NbodyParams::validate()),
        "perlin" => perlin::ompss::try_run(cfg, PerlinParams::validate(), false),
        other => panic!("unknown app '{other}'; expected one of {APPS:?}"),
    }
}
