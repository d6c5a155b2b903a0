//! Golden checkpoints: fork every trial from the fault-free run and stop it
//! once it re-converges.
//!
//! Almost all of a trial's kernel stepping is work the outcome does not
//! depend on. The prefix before the interrupt is the golden run itself, and
//! many faults are overwritten within a few steps, after which the rest of
//! the run *is* the golden run again. A [`Timeline`] records the golden run
//! once per campaign as up to [`CHECKPOINTS`] evenly spaced target states;
//! the supervisor then
//!
//! * **forks** each trial from the nearest checkpoint at or before its
//!   injection step instead of replaying from step 0 (ZOFI's
//!   fork-at-injection), and
//! * **cuts it off** at the first later checkpoint whose state the victim
//!   matches bit for bit: a deterministic target in the golden state runs
//!   the golden tail to the golden output, so the trial is Masked.
//!
//! Neither changes a record. The executed-step count a cut-off trial
//! reports is the one the full run would have reported, forked steps are
//! charged as if the run had started at step 0, and a converged trial whose
//! full run would have exhausted the watchdog budget runs on to its
//! timeout. Targets opt in through [`FaultTarget::checkpoint`],
//! [`FaultTarget::restore`] and [`FaultTarget::matches`]; a target without
//! them gets an empty timeline and runs every trial from step 0.

use crate::bytesview::{as_bytes, PlainBits};
use crate::fuel::Fuel;
use crate::output::Output;
use crate::target::{FaultTarget, StepOutcome};
use std::any::Any;
use std::sync::Arc;

/// Most checkpoints one golden timeline keeps. Evenly spaced over the run,
/// so a trial replays at most `total_steps / CHECKPOINTS` fault-free steps
/// and memory stays bounded by 16 copies of the state a run writes.
pub const CHECKPOINTS: usize = 16;

/// A target's state at one step boundary. Only the target type that took it
/// can read it back ([`Checkpoint::state`] downcasts).
pub struct Checkpoint {
    step: usize,
    state: Box<dyn Any + Send + Sync>,
}

impl Checkpoint {
    /// Wraps `state`, taken when the target had executed `step` steps.
    pub fn new<S: Any + Send + Sync>(step: usize, state: S) -> Self {
        Checkpoint { step, state: Box::new(state) }
    }

    /// Steps the target had executed when the checkpoint was taken.
    pub fn step(&self) -> usize {
        self.step
    }

    /// The saved state, if it was saved as an `S`.
    pub fn state<S: Any>(&self) -> Option<&S> {
        self.state.downcast_ref()
    }
}

impl std::fmt::Debug for Checkpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Checkpoint").field("step", &self.step).finish_non_exhaustive()
    }
}

/// Bitwise slice equality with [`Output::bits_equal`]'s chunked `u64`
/// scan. Floats compare by bit pattern, so `-0.0` never equals `0.0` and
/// NaN payloads must match exactly — a flipped sign bit is not convergence.
pub fn bits_eq<T: PlainBits>(a: &[T], b: &[T]) -> bool {
    a.len() == b.len() && crate::output::bytes_equal_wordwise(as_bytes(a), as_bytes(b))
}

/// [`bits_eq`] for slices of records, each flattened to its fields' bit
/// patterns by `bits` (`f32::to_bits` widened, integers as they are):
/// structs with padding have no byte view that is safe to compare.
pub fn fields_eq<T, const N: usize>(a: &[T], b: &[T], bits: impl Fn(&T) -> [u64; N]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| bits(x) == bits(y))
}

/// The golden run's checkpoints, in step order, plus the step count the
/// golden run took to finish.
#[derive(Debug, Default)]
pub struct Timeline {
    steps: usize,
    points: Vec<Checkpoint>,
}

/// The timeline of a target without checkpoint support.
static EMPTY: Timeline = Timeline { steps: 0, points: Vec::new() };

impl Timeline {
    /// Runs `target` — pristine, fresh or just reset — to completion,
    /// checkpointing it at up to [`CHECKPOINTS`] evenly spaced step
    /// boundaries, starting with step 0. The target is left finished; the
    /// caller resets it before reuse.
    ///
    /// Returns an empty timeline, which disables forking and the cutoff,
    /// when the target takes no checkpoints, when its step counter
    /// disagrees with the steps run, or when the recorded run's output is
    /// not bit-identical to `golden`: a timeline is only sound against the
    /// output it reproduces.
    pub fn record<T: FaultTarget + ?Sized>(target: &mut T, golden: &Output) -> Timeline {
        let _span = obs::span!("timeline");
        let total = target.total_steps().max(1);
        let mut fuel = Fuel::new(u64::MAX);
        let mut points: Vec<Checkpoint> = Vec::with_capacity(CHECKPOINTS.min(total));
        for k in 0..CHECKPOINTS {
            let at = k * total / CHECKPOINTS;
            if points.last().is_some_and(|cp| cp.step >= at) {
                continue;
            }
            if target.run_until(at, &mut fuel) == StepOutcome::Done {
                break;
            }
            let spent = (u64::MAX - fuel.remaining()) as usize;
            match target.checkpoint() {
                Some(cp) if cp.step == at && spent == at && target.steps_executed() == at => points.push(cp),
                _ => return Timeline::default(),
            }
        }
        target.run_until(usize::MAX, &mut fuel);
        if !target.output().bits_equal(golden) {
            return Timeline::default();
        }
        Timeline { steps: (u64::MAX - fuel.remaining()) as usize, points }
    }

    /// Number of checkpoints (0 when forking and the cutoff are off).
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True for the timeline of a target without checkpoint support.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Steps the golden run executed before finishing.
    pub(crate) fn steps(&self) -> usize {
        self.steps
    }

    /// The checkpoints, in step order.
    pub fn points(&self) -> &[Checkpoint] {
        &self.points
    }

    /// The latest checkpoint at or before `step` worth forking from: `None`
    /// when that is step 0, where every trial's target already is.
    pub(crate) fn fork_point(&self, step: usize) -> Option<&Checkpoint> {
        let after = self.points.partition_point(|cp| cp.step <= step);
        self.points[..after].last().filter(|cp| cp.step > 0)
    }

    /// The checkpoints at or after `step`: the cutoff's comparison points.
    pub(crate) fn at_or_after(&self, step: usize) -> &[Checkpoint] {
        &self.points[self.points.partition_point(|cp| cp.step < step)..]
    }
}

/// The fault-free reference a trial is judged against: the golden output,
/// plus the golden [`Timeline`] the trial forks from and converges to.
///
/// A bare `&Output` (or `&Arc<Output>`) converts into a `Golden` with the
/// empty timeline, so such a caller runs every trial from step 0 with no
/// cutoff.
#[derive(Debug, Clone, Copy)]
pub struct Golden<'a> {
    pub(crate) output: &'a Output,
    pub(crate) timeline: &'a Timeline,
}

impl<'a> Golden<'a> {
    pub fn new(output: &'a Output, timeline: &'a Timeline) -> Self {
        Golden { output, timeline }
    }
}

impl<'a> From<&'a Output> for Golden<'a> {
    fn from(output: &'a Output) -> Self {
        Golden { output, timeline: &EMPTY }
    }
}

impl<'a> From<&'a Arc<Output>> for Golden<'a> {
    fn from(output: &'a Arc<Output>) -> Self {
        Golden::from(&**output)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_eq_compares_bit_patterns_not_values() {
        assert!(bits_eq(&[0.0f64, 1.5], &[0.0, 1.5]));
        assert!(!bits_eq(&[0.0f64], &[-0.0]), "-0.0 == 0.0 as floats, not as bits");
        let nan = f64::from_bits(0x7ff8_0000_0000_beef);
        assert!(bits_eq(&[nan], &[nan]), "identical NaN payloads are equal bits");
        assert!(!bits_eq(&[nan], &[f64::NAN]), "NaN payloads must match");
        assert!(!bits_eq(&[1u32, 2], &[1, 2, 3]), "length is part of the state");
        // Odd lengths exercise the byte tail after the u64 words.
        assert!(!bits_eq(&[1u8, 2, 3, 4, 5, 6, 7, 8, 9], &[1, 2, 3, 4, 5, 6, 7, 8, 10]));
    }

    fn timeline(steps: &[usize]) -> Timeline {
        Timeline { steps: 20, points: steps.iter().map(|&s| Checkpoint::new(s, ())).collect() }
    }

    #[test]
    fn fork_point_is_the_latest_checkpoint_past_step_zero() {
        let t = timeline(&[0, 5, 10, 15]);
        assert!(t.fork_point(0).is_none());
        assert!(t.fork_point(4).is_none(), "step 0 is where the target already is");
        assert_eq!(t.fork_point(5).map(Checkpoint::step), Some(5));
        assert_eq!(t.fork_point(14).map(Checkpoint::step), Some(10));
        assert_eq!(t.fork_point(19).map(Checkpoint::step), Some(15));
        assert!(Timeline::default().fork_point(7).is_none());
    }

    #[test]
    fn cutoff_points_start_at_the_injection_step() {
        let t = timeline(&[0, 5, 10, 15]);
        let steps = |s: usize| t.at_or_after(s).iter().map(Checkpoint::step).collect::<Vec<_>>();
        assert_eq!(steps(5), [5, 10, 15]);
        assert_eq!(steps(6), [10, 15]);
        assert!(steps(16).is_empty());
    }

    #[test]
    fn checkpoints_downcast_only_to_their_own_type() {
        let cp = Checkpoint::new(3, vec![1u32, 2]);
        assert_eq!(cp.step(), 3);
        assert_eq!(cp.state::<Vec<u32>>(), Some(&vec![1, 2]));
        assert!(cp.state::<Vec<u64>>().is_none());
    }
}
