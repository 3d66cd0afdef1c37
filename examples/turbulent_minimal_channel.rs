//! A minimal turbulent channel: transition from a perturbed laminar
//! profile toward sustained near-wall turbulence, with live statistics.
//!
//! ```text
//! cargo run --release --example turbulent_minimal_channel [steps]
//! ```
//!
//! This is the laptop-scale stand-in for the paper's Re_tau = 5200
//! production run (see DESIGN.md): identical code path, small box.

use channel_dns::core_solver::io::{ascii_art, gather_physical};
use channel_dns::core_solver::stats::{profiles, StatsAccumulator, StatsConfig};
use channel_dns::core_solver::{run_serial, Params};

fn main() {
    let steps: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(800);
    let mut params = Params::channel(32, 65, 32, 180.0);
    params.lx = 2.4;
    params.lz = 1.0;
    params.dt = 5e-4;
    params.grid_stretch = 1.9;
    println!(
        "minimal channel: {}x{}x{} modes, box {:.1} x 2 x {:.1}, Re_tau target 180",
        params.nx, params.ny, params.nz, params.lx, params.lz
    );
    run_serial(params, move |dns| {
        dns.set_laminar(0.3);
        dns.add_perturbation(0.5, 2024);
        let every = (steps / 8).max(1);
        let mut acc = StatsAccumulator::new(StatsConfig {
            every: every as u64,
            warmup: (steps / 2) as u64,
        });
        for s in 1..=steps {
            dns.step();
            if s % every == 0 {
                let p = profiles(dns);
                println!(
                    "step {s:5}  t = {:.2}  u_tau = {:.3}  Re_tau = {:5.1}  peak u'u' = {:.2}",
                    dns.state().time,
                    p.u_tau,
                    p.re_tau,
                    p.uu.iter().cloned().fold(0.0, f64::max)
                );
                if s > steps / 2 {
                    acc.add_profiles(&p, dns.state().steps, dns.state().time);
                }
            }
        }
        if let Some(m) = acc.mean() {
            println!(
                "\naveraged over the last half: u_tau = {:.3}, Re_tau = {:.1}",
                m.u_tau, m.re_tau
            );
        }
        if let Some(field) = gather_physical(dns, dns.state().u()) {
            let (w, h, slice) = field.slice_xy(field.nz / 2);
            println!("\ninstantaneous u(x, y) at mid-span:");
            println!("{}", ascii_art(w, h, &slice, 80, 18));
        }
    });
}
