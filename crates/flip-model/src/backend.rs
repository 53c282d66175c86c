//! Selection between the per-agent, counts, and hybrid simulation engines.

use std::fmt;
use std::str::FromStr;

use crate::error::FlipError;

/// Default tracked-subpopulation size for [`Backend::Hybrid`] when a caller
/// wants "a hybrid backend" without caring about the exact split (used by
/// [`Backend::ALL`] and registry capability lists).
pub const DEFAULT_HYBRID_TRACKED: u32 = 16;

/// Which simulation engine executes a workload.
///
/// * [`Backend::Agents`] — the per-agent [`Simulation`](crate::Simulation):
///   one state machine object per agent, exact collision resolution, per-agent
///   traces.  The reference semantics; practical up to `n ≈ 10⁴–10⁵`.
/// * [`Backend::Dense`] — the counts engine,
///   [`StratifiedSimulation`](crate::StratifiedSimulation) (one stratum for
///   a homogeneous population): `O(#strata × #states)` per round,
///   distributionally equivalent at the population level; practical to
///   `n = 10⁷` and beyond.
/// * [`Backend::Hybrid`] — the [`HybridSimulation`](crate::HybridSimulation):
///   `k` tracked agents simulated exactly (per-message channel noise,
///   per-agent state) against a dense bulk, exchanging aggregate send counts
///   and sampled deliveries each round.
///
/// Sweep specs select the backend in their `backend` field
/// (`agents|dense|hybrid:k`).
///
/// # Example
///
/// ```
/// use flip_model::Backend;
///
/// assert_eq!("dense".parse::<Backend>().unwrap(), Backend::Dense);
/// assert_eq!("hybrid:32".parse::<Backend>().unwrap(), Backend::Hybrid(32));
/// assert_eq!(Backend::Hybrid(32).to_string(), "hybrid:32");
/// assert_eq!(Backend::Agents.to_string(), "agents");
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum Backend {
    /// The per-agent reference engine.
    #[default]
    Agents,
    /// The counts engine.
    Dense,
    /// The hybrid engine: this many tracked agents against a dense bulk.
    Hybrid(u32),
}

impl Backend {
    /// One representative of every backend family, in default-first order.
    pub const ALL: [Backend; 3] = [
        Backend::Agents,
        Backend::Dense,
        Backend::Hybrid(DEFAULT_HYBRID_TRACKED),
    ];

    /// The canonical command-line family name of the backend (the part
    /// before any `:k` suffix — see [`Display`](fmt::Display) for the full
    /// round-trippable form).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Backend::Agents => "agents",
            Backend::Dense => "dense",
            Backend::Hybrid(_) => "hybrid",
        }
    }

    /// Whether two backends belong to the same engine family, ignoring
    /// per-variant parameters (any two `Hybrid(k)` values match).  Registry
    /// capability lists are family-level: a protocol that supports
    /// `hybrid:16` supports every `hybrid:k`.
    #[must_use]
    pub fn same_family(self, other: Backend) -> bool {
        std::mem::discriminant(&self) == std::mem::discriminant(&other)
    }

    /// The tracked-subpopulation size, when this is a hybrid backend.
    #[must_use]
    pub fn tracked(self) -> Option<u32> {
        match self {
            Backend::Hybrid(k) => Some(k),
            _ => None,
        }
    }
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Backend::Hybrid(k) => write!(f, "hybrid:{k}"),
            other => f.write_str(other.as_str()),
        }
    }
}

impl FromStr for Backend {
    type Err = FlipError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let lower = s.to_ascii_lowercase();
        if let Some(suffix) = lower.strip_prefix("hybrid") {
            let spec = suffix.strip_prefix(':');
            return match spec {
                None if suffix.is_empty() => Err(FlipError::InvalidParameter {
                    name: "backend",
                    message: "backend `hybrid` needs a tracked subpopulation size: \
                              write `hybrid:k` with k >= 1 (e.g. `hybrid:16`)"
                        .into(),
                }),
                None => Err(unknown_backend(&lower)),
                Some(raw) => match raw.parse::<u32>() {
                    Ok(0) => Err(FlipError::InvalidParameter {
                        name: "backend",
                        message: "backend `hybrid:0` tracks no agents; \
                                  the tracked subpopulation size k must be >= 1"
                            .into(),
                    }),
                    Ok(k) => Ok(Backend::Hybrid(k)),
                    Err(_) => Err(FlipError::InvalidParameter {
                        name: "backend",
                        message: format!(
                            "backend `hybrid:{raw}` has a malformed tracked subpopulation \
                             size; write `hybrid:k` with k >= 1 (e.g. `hybrid:16`)"
                        ),
                    }),
                },
            };
        }
        match lower.as_str() {
            "agents" | "agent" | "per-agent" => Ok(Backend::Agents),
            "dense" | "counts" => Ok(Backend::Dense),
            other => Err(unknown_backend(other)),
        }
    }
}

fn unknown_backend(other: &str) -> FlipError {
    FlipError::InvalidParameter {
        name: "backend",
        message: format!("unknown backend `{other}`; expected `agents`, `dense`, or `hybrid:k`"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_all_spellings() {
        assert_eq!("agents".parse::<Backend>().unwrap(), Backend::Agents);
        assert_eq!("per-agent".parse::<Backend>().unwrap(), Backend::Agents);
        assert_eq!("DENSE".parse::<Backend>().unwrap(), Backend::Dense);
        assert_eq!("counts".parse::<Backend>().unwrap(), Backend::Dense);
        assert_eq!("hybrid:1".parse::<Backend>().unwrap(), Backend::Hybrid(1));
        assert_eq!(
            "HYBRID:200".parse::<Backend>().unwrap(),
            Backend::Hybrid(200)
        );
        assert!("gpu".parse::<Backend>().is_err());
    }

    #[test]
    fn display_round_trips() {
        for backend in Backend::ALL {
            assert_eq!(backend.to_string().parse::<Backend>().unwrap(), backend);
        }
        assert_eq!(
            Backend::Hybrid(1024)
                .to_string()
                .parse::<Backend>()
                .unwrap(),
            Backend::Hybrid(1024)
        );
    }

    #[test]
    fn hybrid_without_a_subpopulation_size_fails_loudly() {
        for bad in ["hybrid", "hybrid:", "hybrid:0", "hybrid:x", "hybrid-8"] {
            let err = bad.parse::<Backend>().unwrap_err();
            let message = err.to_string();
            assert!(
                message.contains("backend"),
                "error for `{bad}` must name the backend flag: {message}"
            );
            if bad != "hybrid-8" {
                assert!(
                    message.contains("subpopulation") || message.contains("k >= 1"),
                    "error for `{bad}` must explain the missing size: {message}"
                );
            }
        }
    }

    #[test]
    fn family_matching_ignores_the_tracked_count() {
        assert!(Backend::Hybrid(1).same_family(Backend::Hybrid(999)));
        assert!(!Backend::Hybrid(1).same_family(Backend::Dense));
        assert!(Backend::Agents.same_family(Backend::Agents));
        assert_eq!(Backend::Hybrid(7).tracked(), Some(7));
        assert_eq!(Backend::Dense.tracked(), None);
    }

    #[test]
    fn default_is_the_reference_engine() {
        assert_eq!(Backend::default(), Backend::Agents);
    }
}
