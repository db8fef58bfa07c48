//! The correctness gate every timed and traced iteration passes through.
//!
//! A report passes when its ledgers conserve bytes, its per-user, per-day
//! and per-swarm views each add up to its total, its swarms account for
//! every input session, and it equals the reference report built during
//! set-up through a different feeding shape.

use consume_local::sim::checkpoint::fnv1a;
use consume_local::sim::{ByteLedger, SimReport};

/// Counts attempted and failed operations: sends, snapshot writes and
/// report checks.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
}

impl Tally {
    /// Counts one operation and records its failure, if any.
    pub fn note<E: std::fmt::Display>(&mut self, what: &str, outcome: Result<(), E>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            if self.errors.len() < 8 {
                self.errors.push(format!("{what}: {e}"));
            }
        }
    }

    /// Folds another tally into this one.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = 8usize.saturating_sub(self.errors.len());
        self.errors.extend(other.errors.into_iter().take(room));
    }
}

/// Checks the report's internal invariants against the number of sessions
/// that were fed in.
pub fn check_invariants(report: &SimReport, input_sessions: u64) -> Result<(), String> {
    // Every ledger conserves demand = server + cache + preload + Σ peer
    // layers, and the users' watched bytes add up to the total demand.
    report.check_conservation()?;
    let mut daily = ByteLedger::new();
    report.daily.iter().for_each(|c| daily.merge(&c.ledger));
    if daily != report.total {
        return Err(format!(
            "sum of daily cells {daily:?} != total {:?}",
            report.total
        ));
    }
    let mut swarms = ByteLedger::new();
    report.swarms.iter().for_each(|s| swarms.merge(&s.ledger));
    if swarms != report.total {
        return Err(format!(
            "sum of swarm ledgers {swarms:?} != total {:?}",
            report.total
        ));
    }
    let sessions: u64 = report.swarms.iter().map(|s| s.sessions).sum();
    if sessions != input_sessions {
        return Err(format!(
            "swarms account for {sessions} sessions, {input_sessions} were fed"
        ));
    }
    Ok(())
}

/// [`check_invariants`], then equality with the set-up reference.
pub fn check_report(
    report: &SimReport,
    reference: &SimReport,
    input_sessions: u64,
) -> Result<(), String> {
    check_invariants(report, input_sessions)?;
    if report != reference {
        return Err(format!(
            "report {:016x} differs from the reference {:016x}",
            digest(report),
            digest(reference)
        ));
    }
    Ok(())
}

/// FNV-1a digest of the report's full `Debug` rendering (exact for every
/// field, floats included).
pub fn digest(report: &SimReport) -> u64 {
    fnv1a(format!("{report:?}").as_bytes())
}
