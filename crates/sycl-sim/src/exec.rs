//! Host-side execution policy for simulated kernel launches.
//!
//! The simulated device executes work-groups on host threads. A launch is
//! either [`ExecutionPolicy::Serial`] — one thread, sub-groups in id order,
//! atomics applied immediately — or [`ExecutionPolicy::Parallel`] — whole
//! work-groups fanned out across a thread pool with cross-work-group
//! atomic read-modify-writes deferred and committed in a fixed order so the
//! result is bit-identical to the serial path at any thread count (see
//! DESIGN.md, "Deterministic commit ordering").

/// How a launch distributes its work-groups across host threads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecutionPolicy {
    /// Single-threaded reference path: sub-groups run in id order on the
    /// launching thread and atomics apply immediately.
    Serial,
    /// Work-groups execute on a scoped thread pool; deferred atomics are
    /// committed in work-group id order afterwards.
    Parallel {
        /// Worker-thread cap. `0` means "auto": `RAYON_NUM_THREADS` if
        /// set, otherwise the machine's available parallelism.
        threads: usize,
    },
}

impl ExecutionPolicy {
    /// The auto-sized parallel policy.
    pub fn auto() -> Self {
        ExecutionPolicy::Parallel { threads: 0 }
    }

    /// A parallel policy capped at `threads` workers (`0` = auto).
    pub fn with_threads(threads: usize) -> Self {
        ExecutionPolicy::Parallel { threads }
    }

    /// Policy selected by the environment: `HACC_EXEC=serial` forces the
    /// serial reference path; `parallel`, `auto` or unset is
    /// [`Self::auto`] (whose width `RAYON_NUM_THREADS` caps). Lets CLI
    /// front-ends flip the whole process without threading a flag
    /// through every call.
    ///
    /// # Panics
    /// On any other value: a mistyped `HACC_EXEC=seral` must not
    /// silently run the parallel scheduler.
    pub fn from_env() -> Self {
        Self::from_env_value(std::env::var("HACC_EXEC").ok().as_deref())
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Self::from_env`] on an already-read value (`None` = unset).
    fn from_env_value(value: Option<&str>) -> Result<Self, String> {
        match value {
            Some("serial") => Ok(ExecutionPolicy::Serial),
            None | Some("parallel" | "auto") => Ok(ExecutionPolicy::auto()),
            Some(other) => Err(format!(
                "HACC_EXEC: unknown execution policy `{other}` (accepted: serial | parallel | auto)"
            )),
        }
    }

    /// Stable label for telemetry and benchmark output.
    pub fn label(&self) -> String {
        match self {
            ExecutionPolicy::Serial => "serial".to_string(),
            ExecutionPolicy::Parallel { threads: 0 } => "parallel(auto)".to_string(),
            ExecutionPolicy::Parallel { threads } => format!("parallel({threads})"),
        }
    }
}

impl Default for ExecutionPolicy {
    fn default() -> Self {
        ExecutionPolicy::auto()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels() {
        assert_eq!(ExecutionPolicy::Serial.label(), "serial");
        assert_eq!(ExecutionPolicy::auto().label(), "parallel(auto)");
        assert_eq!(ExecutionPolicy::with_threads(4).label(), "parallel(4)");
        assert_eq!(ExecutionPolicy::default(), ExecutionPolicy::auto());
    }

    #[test]
    fn env_values_are_a_closed_set() {
        let parse = ExecutionPolicy::from_env_value;
        assert_eq!(parse(Some("serial")), Ok(ExecutionPolicy::Serial));
        for auto in [None, Some("parallel"), Some("auto")] {
            assert_eq!(parse(auto), Ok(ExecutionPolicy::auto()));
        }
        // A typo names the variable and the accepted set instead of
        // silently running the parallel scheduler.
        assert_eq!(
            parse(Some("seral")),
            Err(
                "HACC_EXEC: unknown execution policy `seral` (accepted: serial | parallel | auto)"
                    .to_string()
            )
        );
        assert!(parse(Some("Serial")).is_err());
        assert!(parse(Some("")).is_err());
    }
}
