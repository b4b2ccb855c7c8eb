//! The hand-written known-answer table.
//!
//! Each entry pins one case variant at one bound and lists the verdict
//! of every proof obligation (one per monitor bad property): `bug@d`
//! when a counterexample exists at depth `d`, `clean@k` when none exists
//! up to bound `k`. The benchmark compares every run against this table
//! instead of trusting the solver under test, and replays every bug
//! witness on the simulator.

use aqed_core::CheckOutcome;

/// One obligation's expected verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// A counterexample at this depth.
    Bug(usize),
    /// No counterexample up to this bound.
    Clean(usize),
}

impl Verdict {
    /// The definitive verdict of `outcome`; `None` for inconclusive and
    /// errored outcomes, which never match the table.
    #[must_use]
    pub fn of(outcome: &CheckOutcome) -> Option<Verdict> {
        match outcome {
            CheckOutcome::Clean { bound } => Some(Verdict::Clean(*bound)),
            CheckOutcome::Bug { counterexample, .. } => Some(Verdict::Bug(counterexample.depth)),
            CheckOutcome::Inconclusive { .. } | CheckOutcome::Errored { .. } => None,
        }
    }
}

/// A catalog case variant at a pinned bound with its known answers.
#[derive(Debug, Clone, Copy)]
pub struct Case {
    /// Catalog case id.
    pub id: &'static str,
    /// Whether the healthy variant is verified instead of the buggy one.
    pub healthy: bool,
    /// BMC bound.
    pub bound: usize,
    /// Expected verdict of each obligation, in bad-property order.
    pub expect: &'static [(&'static str, Verdict)],
}

impl Case {
    /// Whether `got` (obligation name, verdict) matches the table
    /// exactly, in order.
    #[must_use]
    pub fn matches(&self, got: &[(String, Option<Verdict>)]) -> bool {
        got.len() == self.expect.len()
            && got
                .iter()
                .zip(self.expect)
                .all(|((name, v), (want_name, want))| name == want_name && *v == Some(*want))
    }

    /// The CLI exit code the table implies: 1 when any obligation has a
    /// bug, else 0.
    #[must_use]
    pub fn exit_code(&self) -> i32 {
        i32::from(
            self.expect
                .iter()
                .any(|(_, v)| matches!(v, Verdict::Bug(_))),
        )
    }
}

use Verdict::{Bug, Clean};

const FC: &str = "aqed_fc_violation";
const FC_EARLY: &str = "aqed_fc_output_before_input";
const RB_STARVE: &str = "aqed_rb_rdin_starvation";
const RB_NO_OUT: &str = "aqed_rb_missing_output";

const fn buggy(id: &'static str, bound: usize, expect: &'static [(&'static str, Verdict)]) -> Case {
    Case {
        id,
        healthy: false,
        bound,
        expect,
    }
}

const fn healthy(
    id: &'static str,
    bound: usize,
    expect: &'static [(&'static str, Verdict)],
) -> Case {
    Case {
        id,
        healthy: true,
        bound,
        expect,
    }
}

/// The `search` workload: the fifteen Table-1 memory-controller bug
/// cases at the catalog bound 16, plus the motivating example at bound
/// 9, where it is clean and its search is hardest.
#[must_use]
pub fn search_cases() -> Vec<Case> {
    vec![
        buggy(
            "fifo_ptr_wrap_off_by_one",
            16,
            &[(FC, Bug(4)), (FC_EARLY, Clean(16))],
        ),
        buggy(
            "fifo_full_check_missing",
            16,
            &[(FC, Bug(6)), (FC_EARLY, Clean(16))],
        ),
        buggy(
            "fifo_stuck_full_deadlock",
            16,
            &[(RB_STARVE, Bug(14)), (RB_NO_OUT, Clean(16))],
        ),
        buggy(
            "fifo_count_underflow",
            16,
            &[(FC, Bug(6)), (FC_EARLY, Bug(1))],
        ),
        buggy(
            "fifo_redundant_write_glitch",
            16,
            &[(FC, Bug(4)), (FC_EARLY, Clean(16))],
        ),
        buggy(
            "db_swap_without_drain_check",
            16,
            &[(FC, Bug(6)), (FC_EARLY, Clean(16))],
        ),
        buggy(
            "db_drain_ptr_not_reset",
            16,
            &[(FC, Bug(6)), (FC_EARLY, Clean(16))],
        ),
        buggy(
            "db_rdin_ignores_full",
            16,
            &[(FC, Bug(8)), (FC_EARLY, Clean(16))],
        ),
        buggy(
            "db_double_drain",
            16,
            &[(FC, Bug(6)), (FC_EARLY, Clean(16))],
        ),
        buggy(
            "db_write_collision",
            16,
            &[(FC, Bug(6)), (FC_EARLY, Clean(16))],
        ),
        buggy(
            "lb_tap_off_by_one",
            16,
            &[(FC, Bug(7)), (FC_EARLY, Clean(16))],
        ),
        buggy(
            "lb_warmup_off_by_one",
            16,
            &[(FC, Bug(6)), (FC_EARLY, Clean(16))],
        ),
        buggy(
            "lb_shift_during_stall",
            16,
            &[(FC, Bug(7)), (FC_EARLY, Clean(16))],
        ),
        buggy(
            "lb_valid_stuck",
            16,
            &[(FC, Clean(16)), (FC_EARLY, Bug(10))],
        ),
        buggy(
            "lb_stage_enable_cross_wired",
            16,
            &[(FC, Bug(7)), (FC_EARLY, Clean(16))],
        ),
        buggy(
            "motivating_clock_enable",
            9,
            &[(FC, Clean(9)), (FC_EARLY, Clean(9))],
        ),
    ]
}

/// The `encode` workload: the seven Table-2 HLS bug cases at their
/// catalog bounds.
#[must_use]
pub fn encode_cases() -> Vec<Case> {
    vec![
        buggy("aes_v1", 12, &[(FC, Bug(7)), (FC_EARLY, Clean(12))]),
        buggy("aes_v2", 10, &[(FC, Bug(5)), (FC_EARLY, Clean(10))]),
        buggy("aes_v3", 14, &[(FC, Bug(7)), (FC_EARLY, Clean(14))]),
        buggy("aes_v4", 12, &[(FC, Bug(7)), (FC_EARLY, Clean(12))]),
        buggy(
            "dataflow_fifo_sizing",
            16,
            &[(RB_STARVE, Clean(16)), (RB_NO_OUT, Bug(15))],
        ),
        buggy(
            "optflow_pushpop",
            15,
            &[(RB_STARVE, Clean(15)), (RB_NO_OUT, Bug(10))],
        ),
        buggy("gsm_acc_race", 18, &[(FC, Bug(10)), (FC_EARLY, Clean(18))]),
    ]
}

/// The `serve-warm` request set: the `encode` cases plus the healthy
/// dataflow design at bound 8.
#[must_use]
pub fn serve_cases() -> Vec<Case> {
    let mut cases = encode_cases();
    cases.push(healthy(
        "dataflow_fifo_sizing",
        8,
        &[(RB_STARVE, Clean(8)), (RB_NO_OUT, Clean(8))],
    ));
    cases
}

/// The `reverify` suite: healthy designs at bound 8, all clean before
/// any edit.
#[must_use]
pub fn reverify_cases() -> Vec<Case> {
    vec![
        healthy("gsm_acc_race", 8, &[(FC, Clean(8)), (FC_EARLY, Clean(8))]),
        healthy(
            "dataflow_fifo_sizing",
            8,
            &[(RB_STARVE, Clean(8)), (RB_NO_OUT, Clean(8))],
        ),
        healthy(
            "optflow_pushpop",
            8,
            &[(RB_STARVE, Clean(8)), (RB_NO_OUT, Clean(8))],
        ),
    ]
}
