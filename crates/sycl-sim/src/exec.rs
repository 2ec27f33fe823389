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
}
