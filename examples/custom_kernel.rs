//! Making your own code injectable: implement [`FaultTarget`] and reuse the
//! whole harness — injector, beam simulator and analysis — unchanged.
//!
//! ```text
//! cargo run --release --example custom_kernel
//! ```
//!
//! The victim here is a small Jacobi solver for `A·x = b`. Its state surface
//! exposes the matrix, the two iterate buffers and a per-sweep control
//! block, exactly like the bundled Rodinia ports.
//!
//! Everything past the required methods is optional. `reset` lets campaign
//! runners pool one target per worker instead of rebuilding it per trial;
//! `checkpoint`, `restore` and `matches` let each trial fork from a golden
//! checkpoint and stop once its state re-converges (see
//! `carolfi::checkpoint`). This solver implements none of them, so every
//! trial runs from step 0 to the end — slower, but with the same records.

use phi_reliability::carolfi::fuel::Fuel;
use phi_reliability::carolfi::output::Output;
use phi_reliability::carolfi::target::{FaultTarget, StepOutcome, VarClass, VarInfo, Variable};
use phi_reliability::carolfi::{run_campaign, CampaignConfig};
use phi_reliability::sdc_analysis::pvf::OutcomeBreakdown;
use rand::Rng;

struct Jacobi {
    n: usize,
    a: Vec<f64>,
    b: Vec<f64>,
    x: Vec<f64>,
    x_next: Vec<f64>,
    sweeps: u64,
    done: usize,
    total: usize,
}

impl Jacobi {
    fn new(n: usize, total_sweeps: usize) -> Self {
        let mut rng = phi_reliability::carolfi::rng::fork(0xAC0B, 0);
        let mut a: Vec<f64> = (0..n * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        for i in 0..n {
            a[i * n + i] += n as f64; // diagonally dominant => Jacobi converges
        }
        let b: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        Jacobi { n, a, b, x: vec![0.0; n], x_next: vec![0.0; n], sweeps: 0, done: 0, total: total_sweeps }
    }
}

impl FaultTarget for Jacobi {
    fn name(&self) -> &'static str {
        "jacobi"
    }
    fn total_steps(&self) -> usize {
        self.total
    }
    fn steps_executed(&self) -> usize {
        self.done
    }

    fn step(&mut self) -> StepOutcome {
        let n = self.n;
        let mut fuel = Fuel::with_factor((n * n) as u64, 4.0);
        for i in 0..n {
            let mut sigma = 0.0;
            for j in 0..n {
                fuel.burn(1);
                if i != j {
                    sigma += self.a[i * n + j] * self.x[j];
                }
            }
            self.x_next[i] = (self.b[i] - sigma) / self.a[i * n + i];
        }
        std::mem::swap(&mut self.x, &mut self.x_next);
        self.sweeps += 1; // injectable; a corrupted sweep counter is benign
        self.done += 1;
        if self.done >= self.total {
            StepOutcome::Done
        } else {
            StepOutcome::Continue
        }
    }

    fn variables(&mut self) -> Vec<Variable<'_>> {
        vec![
            Variable::from_slice(VarInfo::global("matrix_a", VarClass::Matrix, file!(), 1), &mut self.a),
            Variable::from_slice(VarInfo::global("rhs_b", VarClass::InputArray, file!(), 2), &mut self.b),
            Variable::from_slice(VarInfo::global("x", VarClass::Matrix, file!(), 3), &mut self.x),
            Variable::from_slice(VarInfo::global("x_scratch", VarClass::Buffer, file!(), 4), &mut self.x_next),
            Variable::from_scalar(VarInfo::local("sweeps", VarClass::ControlVariable, "jacobi_sweep", 0, file!(), 5), &mut self.sweeps),
        ]
    }

    fn output(&self) -> Output {
        Output::F64Grid { dims: [self.n, 1, 1], data: self.x.clone() }
    }
}

fn main() {
    let factory = || Jacobi::new(96, 30);

    // Golden run.
    let mut g = factory();
    while g.step() == StepOutcome::Continue {}
    let gold = g.output();

    // The fixed-point structure should make Jacobi highly fault-tolerant:
    // corrupted iterates are pulled back to the solution by the remaining
    // sweeps (the same self-healing the paper observes in HotSpot).
    let cfg = CampaignConfig { trials: 600, seed: 9, n_windows: 4, ..Default::default() };
    let campaign = run_campaign("jacobi", factory, &gold, &cfg);
    let bd = OutcomeBreakdown::of(&campaign.records);
    println!("custom Jacobi solver under injection ({} trials):", bd.trials);
    println!("  masked {:5.1}%   sdc {:5.1}%   due {:5.1}%", bd.masked_pct(), bd.sdc_pct(), bd.due_pct());
    println!("(iterative fixed-point solvers mask most data faults — compare Fig. 4.)");
}
