//! Dealiased pseudo-spectral evaluation of the nonlinear terms — the
//! paper's section 2.3 pipeline, steps (a) through (h).
//!
//! Starting from spectral velocity coefficients in the y-pencil layout,
//! the three velocity components are inverse-transformed to the
//! 3/2-padded physical grid (two global transposes each), the quadratic
//! products are formed pointwise, the products travel back (two more
//! transposes each), and the right-hand sides of the `omega_y`/`phi`
//! equations are assembled per wavenumber:
//!
//! ```text
//! H_i = -d/dx_j (u_i u_j)
//! h_g = dH_x/dz - dH_z/dx
//! h_v = -d/dy (dH_x/dx + dH_z/dz) + (dxx + dzz) H_y
//! ```
//!
//! The production path ([`compute_into`]) runs the fused
//! five-product pipeline of section 4.1 (`pfft::nonlinear_products`):
//! `vv` only enters `h_g`/`h_v` through the differences `A = uu - vv`
//! and `B = ww - vv` (the `d/dy(vv)` contributions of `H_y` and of
//! `d/dy(ikx H_x + ikz H_z)` cancel exactly), so only five products make
//! the forward hop. [`compute_unfused`] keeps the textbook six-product
//! assembly as the correctness oracle; see DESIGN.md for the accounting.

use crate::lanes::{assemble_g, assemble_v};
use crate::solver::ChannelDns;
use crate::C64;
use dns_banded::{LaneRow, RhsPanel};
use dns_telemetry::Phase;

/// The spectral convective-flux divergences `H_i = -d/dx_j (u_i u_j)` as
/// values at the collocation points, for every locally-owned wavenumber
/// (y-pencil layout), as [`compute_unfused`] assembles them.
struct HFields {
    /// Streamwise component `H_x`.
    hx: Vec<C64>,
    /// Wall-normal component `H_y`.
    hy: Vec<C64>,
    /// Spanwise component `H_z`.
    hz: Vec<C64>,
}

/// Nonlinear right-hand sides, as *values at the y collocation points*:
/// one panel block per `(kz row, kx block)` of the lane-blocked y-pencil
/// but the Nyquist row, in the column order of the rank's batched
/// wall-normal solver (so the time advance reads them as they are; the
/// mean mode's and the pad lanes' columns are never read back), plus the
/// mean-flow terms on the rank owning mode (0,0).
#[derive(Default)]
pub struct NlTerms {
    /// RHS of the `omega_y` equation.
    pub h_g: RhsPanel,
    /// RHS of the `phi` equation.
    pub h_v: RhsPanel,
    /// `H_x(0,0)(y) = -d<uv>/dy` (streamwise mean forcing by the
    /// turbulence), on the owner of mode (0,0); zero elsewhere.
    pub mean_hx: Vec<f64>,
    /// `H_z(0,0)(y) = -d<vw>/dy`.
    pub mean_hz: Vec<f64>,
}

impl NlTerms {
    /// All-zero terms with the layout of `dns` (used for the linearised
    /// runs and as the `zeta_1 = 0` previous-substep placeholder).
    pub fn zeros(dns: &ChannelDns) -> NlTerms {
        let mut t = NlTerms::default();
        t.reset(dns);
        t
    }

    /// Size for the layout of `dns` and zero every entry (no allocation
    /// once the buffers have their steady-state sizes).
    pub fn reset(&mut self, dns: &ChannelDns) {
        let (ny, width) = (dns.ops().n(), dns.panel_width());
        self.h_g.reset(ny, width);
        self.h_v.reset(ny, width);
        self.mean_hx.clear();
        self.mean_hx.resize(ny, 0.0);
        self.mean_hz.clear();
        self.mean_hz.resize(ny, 0.0);
    }

    /// [`reset`](Self::reset) only when the layout changes. Terms that
    /// keep their shape need no fill: the assembly stores every lane of
    /// every row (zeros in the lanes past the last mode) and both mean
    /// lines on their owner before the time advance reads them.
    fn size(&mut self, dns: &ChannelDns) {
        let shape = (dns.ops().n(), dns.panel_width());
        if (self.h_g.n(), self.h_g.width()) != shape || self.mean_hx.len() != shape.0 {
            self.reset(dns);
        }
    }
}

/// Reusable buffers for [`compute_into`]: the pfft workspace, the
/// lane-blocked y-pencil stacks and three one-block scratch panels.
/// Sized on first use, allocation-free afterwards.
#[derive(Default)]
pub struct NlWorkspace {
    /// Transform-pipeline buffers (transposes, line scratch).
    pub pfft: dns_pfft::Workspace,
    /// `B0 u`, `B0 v`, `B0 w`, lane-blocked `[kz_loc][3][kx_block][ny]`;
    /// the advance writes the next substep's ([`ChannelDns::step`]).
    pub(crate) uvw: Vec<LaneRow>,
    /// Whether `uvw` holds the current state's values: cleared by every
    /// state writer, set by the staging pass, kept by the advance.
    pub(crate) staged: bool,
    /// Spectral products, lane-blocked `[kz_loc][5][kx_block][ny]`.
    products: Vec<LaneRow>,
    /// One-block panels: an interpolation scratch, two derivatives.
    blocks: [Vec<LaneRow>; 3],
}

/// Rows of panel block `(kz, xb)` of field `f` in a lane-blocked y-pencil
/// stack of `k` fields, `nb` kx blocks of `ny` rows each.
pub(crate) fn stack_block(
    [k, nb, ny]: [usize; 3],
    kz: usize,
    f: usize,
    xb: usize,
) -> std::ops::Range<usize> {
    let start = ((kz * k + f) * nb + xb) * ny;
    start..start + ny
}

/// Evaluate the convective-flux divergences `H_i` for the current state
/// (the physical-space pipeline: steps (a)-(h) of section 2.3). This is
/// the unfused six-product path of the [`compute_unfused`] oracle.
fn quadratic_h(dns: &ChannelDns) -> HFields {
    let ops = dns.ops();
    let ny = ops.n();
    let pfft = dns.pfft();

    // (a)-(f): velocities to the physical grid; the three fields share
    // their transposes (one aggregated exchange per hop — larger, fewer
    // messages, the same economics the paper exploits in hybrid mode)
    let vals_u = dns.field_values(dns.state().u());
    let vals_v = dns.field_values(dns.state().v());
    let vals_w = dns.field_values(dns.state().w());
    let mut phys = pfft.inverse_batch(&[&vals_u, &vals_v, &vals_w]);
    let phys_w = phys.pop().expect("w");
    let phys_v = phys.pop().expect("v");
    let phys_u = phys.pop().expect("u");

    // (g): quadratic products on the dealiased grid
    let npts = phys_u.len();
    let mut uu = vec![0.0; npts];
    let mut uv = vec![0.0; npts];
    let mut uw = vec![0.0; npts];
    let mut vv = vec![0.0; npts];
    let mut vw = vec![0.0; npts];
    let mut ww = vec![0.0; npts];
    for i in 0..npts {
        let (u, v, w) = (phys_u[i], phys_v[i], phys_w[i]);
        uu[i] = u * u;
        uv[i] = u * v;
        uw[i] = u * w;
        vv[i] = v * v;
        vw[i] = v * w;
        ww[i] = w * w;
    }

    // (h): products back to spectral space (truncation dealiases); all
    // six products aggregated into one exchange per hop
    let mut spec = pfft.forward_batch(&[&uu, &uv, &uw, &vv, &vw, &ww]);
    let s_ww = spec.pop().expect("ww");
    let s_vw = spec.pop().expect("vw");
    let s_vv = spec.pop().expect("vv");
    let s_uw = spec.pop().expect("uw");
    let s_uv = spec.pop().expect("uv");
    let s_uu = spec.pop().expect("uu");

    let len = dns.field_len();
    let mut h = HFields {
        hx: vec![C64::new(0.0, 0.0); len],
        hy: vec![C64::new(0.0, 0.0); len],
        hz: vec![C64::new(0.0, 0.0); len],
    };
    let mut dy_vals = vec![C64::new(0.0, 0.0); ny];
    for mode in 0..dns.local_modes() {
        let line = dns.line_range(mode);
        let (ikx, ikz, _) = dns.mode_wavenumbers(mode);
        if dns.is_nyquist(mode) {
            continue;
        }
        // y-derivative of a product line: interpolate values to spline
        // coefficients, then apply B1
        let dy_of = |vals: &[C64], out: &mut [C64]| {
            let coef = ops.interpolate_complex(vals);
            ops.b1().matvec_complex(&coef, out);
        };
        // H_x = -(ikx uu + d/dy uv + ikz uw)
        dy_of(&s_uv[line.clone()], &mut dy_vals);
        for j in 0..ny {
            h.hx[line.start + j] =
                -(ikx * s_uu[line.start + j] + dy_vals[j] + ikz * s_uw[line.start + j]);
        }
        // H_y = -(ikx uv + d/dy vv + ikz vw)
        dy_of(&s_vv[line.clone()], &mut dy_vals);
        for j in 0..ny {
            h.hy[line.start + j] =
                -(ikx * s_uv[line.start + j] + dy_vals[j] + ikz * s_vw[line.start + j]);
        }
        // H_z = -(ikx uw + d/dy vw + ikz ww)
        dy_of(&s_vw[line.clone()], &mut dy_vals);
        for j in 0..ny {
            h.hz[line.start + j] =
                -(ikx * s_uw[line.start + j] + dy_vals[j] + ikz * s_ww[line.start + j]);
        }
    }
    h
}

/// Evaluate the nonlinear terms through the fused five-product pipeline
/// into caller-owned buffers (no heap allocation once warm, one rank):
/// stage the velocity values from the state (`b0_staging`), run the
/// lane-blocked stacks through
/// [`ParallelFft::nonlinear_lanes`](dns_pfft::ParallelFft::nonlinear_lanes)
/// and assemble the right-hand sides panel block by panel block, per lane
/// the per-mode evaluation's operations in its order (the test module
/// keeps it as the bitwise oracle). The wall-normal stages are N-S advance
/// regions on the rank's phase clock, the transforms between them
/// transpose and FFT ones.
pub fn compute_into(dns: &ChannelDns, out: &mut NlTerms, ws: &mut NlWorkspace) {
    ws.staged = false;
    compute_staged(dns, out, ws);
}

/// [`compute_into`] that stages only when `ws` does not hold the current
/// state's values ([`NlWorkspace::staged`]): the step's path.
pub(crate) fn compute_staged(dns: &ChannelDns, out: &mut NlTerms, ws: &mut NlWorkspace) {
    if !dns.params().nonlinear {
        out.reset(dns);
        return;
    }
    out.size(dns);
    let _nl = dns_telemetry::span("nonlinear", Phase::Other);
    let ops = dns.ops();
    let ny = ops.n();
    let pfft = dns.pfft();
    for blk in ws.blocks.iter_mut() {
        blk.resize(ny, LaneRow::ZERO);
    }
    if !ws.staged {
        stage(dns, ws);
    }

    // fused inverse-product-forward cycle: five spectral products out
    pfft.nonlinear_lanes(&ws.uvw, &mut ws.products, &mut ws.pfft);

    // assembly from the five products A = uu - vv, uv, uw, vw,
    // B = ww - vv (D = d/dy on a mode line):
    //   h_g = kx kz (A - B) + (kz^2 - kx^2) uw - ikz D(uv) + ikx D(vw)
    //   G   = kx^2 A + kz^2 B + 2 kx kz uw - ikx D(uv) - ikz D(vw)
    //   h_v = -D(G) + k^2 (ikx uv + ikz vw)
    // (the d/dy(vv) terms of H_y and of D(ikx H_x + ikz H_z) cancel)
    let [coef, dy1, dy2] = &mut ws.blocks;
    // D of a block: interpolate the values to spline coefficients in
    // place (the shared B0 solve), then apply B1
    let dy_of = |vals: &mut [LaneRow], out: &mut [LaneRow]| {
        ops.b0_lu().solve_block(vals);
        ops.b1().matvec_block(vals, out);
    };
    let region = dns_telemetry::region("rhs_assembly", Phase::NsAdvance);
    let shape = [dns_pfft::NL_PRODUCTS, pfft.kx_lanes(), ny];
    for (b, (kz, xb)) in dns.panel_blocks().enumerate() {
        let product = |f: usize| &ws.products[stack_block(shape, kz, f, xb)];
        let (pa, puv, puw, pvw, pb) = (product(0), product(1), product(2), product(3), product(4));
        // D(uv) and D(vw) feed both h_g and G
        coef.copy_from_slice(puv);
        dy_of(coef, dy1);
        coef.copy_from_slice(pvw);
        dy_of(coef, dy2);
        if dns.mean_mode() == Some(b) {
            // the mean mode (lane 0) is forced by -D(uv) and -D(vw)
            let mean = out.mean_hx.iter_mut().zip(out.mean_hz.iter_mut());
            for ((hx, hz), (d1, d2)) in mean.zip(dy1.iter().zip(dy2.iter())) {
                (*hx, *hz) = (-d1.re[0], -d2.re[0]);
            }
        }
        // G lands in `coef`, where its own derivative solve wants it
        let waves = dns.block_waves(kz, xb);
        let products = [pa, puw, pb, &dy1[..], &dy2[..]];
        assemble_g(dns.isa(), &waves, products, out.h_g.block_mut(b), coef);
        // D(G) can overwrite dy1 — h_g and G are already assembled
        dy_of(coef, dy1);
        assemble_v(dns.isa(), &waves, [dy1, puv, pvw], out.h_v.block_mut(b));
    }
    // three interpolation solves per regular mode, reported per stage
    ops.b0_lu().count_solves(dns.regular_modes(), 3);
    region.close(pfft.clock());
}

/// The `b0_staging` pass: `B0 u`, `B0 v`, `B0 w` of the state into the
/// `ws.uvw` stack, block by block (the Nyquist row's stay zero).
fn stage(dns: &ChannelDns, ws: &mut NlWorkspace) {
    let (ops, pfft) = (dns.ops(), dns.pfft());
    let len = pfft.y_stack_len(dns_pfft::NL_FIELDS);
    if ws.uvw.len() != len {
        ws.uvw.clear();
        ws.uvw.resize(len, LaneRow::ZERO);
    }
    let region = dns_telemetry::region("b0_staging", Phase::NsAdvance);
    let state = dns.state();
    let shape = [dns_pfft::NL_FIELDS, pfft.kx_lanes(), ops.n()];
    let coef = &mut ws.blocks[0];
    for (kz, xb) in dns.panel_blocks() {
        for (f, field) in [state.u(), state.v(), state.w()].into_iter().enumerate() {
            dns.load_block(coef, field, kz, xb);
            ops.b0()
                .matvec_block(coef, &mut ws.uvw[stack_block(shape, kz, f, xb)]);
        }
    }
    region.close(pfft.clock());
    ws.staged = true;
}

/// The pre-fusion reference evaluation: six products through the
/// unfused batched transforms, then the textbook `H_i` assembly. Kept
/// as the correctness oracle for [`compute_into`].
pub fn compute_unfused(dns: &ChannelDns) -> NlTerms {
    if !dns.params().nonlinear {
        return NlTerms::zeros(dns);
    }
    let ops = dns.ops();
    let ny = ops.n();
    let h = quadratic_h(dns);

    let mut out = NlTerms::zeros(dns);
    if let Some(m) = (0..dns.local_modes()).find(|&m| dns.is_mean(m)) {
        let line = dns.line_range(m);
        for j in 0..ny {
            out.mean_hx[j] = h.hx[line.start + j].re;
            out.mean_hz[j] = h.hz[line.start + j].re;
        }
    }
    let mut dy_vals = vec![C64::new(0.0, 0.0); ny];
    for mode in dns.regular() {
        let (col, line) = (dns.panel_col(mode), dns.line_range(mode));
        let (ikx, ikz, k2) = dns.mode_wavenumbers(mode);
        // h_g = ikz H_x - ikx H_z
        let h_g: Vec<C64> = (0..ny)
            .map(|j| ikz * h.hx[line.start + j] - ikx * h.hz[line.start + j])
            .collect();
        out.h_g.load_col(col, &h_g);
        // h_v = -d/dy (ikx H_x + ikz H_z) - k^2 H_y
        let g_vals: Vec<C64> = (0..ny)
            .map(|j| ikx * h.hx[line.start + j] + ikz * h.hz[line.start + j])
            .collect();
        let coef = ops.interpolate_complex(&g_vals);
        ops.b1().matvec_complex(&coef, &mut dy_vals);
        let h_v: Vec<C64> = (0..ny)
            .map(|j| -dy_vals[j] - k2 * h.hy[line.start + j])
            .collect();
        out.h_v.load_col(col, &h_v);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Params;
    use crate::solver::{run_parallel, run_serial};

    /// The per-mode evaluation [`compute_into`] replaced: one scalar
    /// `B0` matvec per staged line, three scalar interpolation solves and
    /// `B1` matvecs per mode. Kept as the bitwise oracle of the blockwise
    /// stages.
    fn compute_per_mode(dns: &ChannelDns) -> NlTerms {
        let mut out = NlTerms::zeros(dns);
        let ops = dns.ops();
        let ny = ops.n();
        let pfft = dns.pfft();
        let sxl = pfft.kx_block().len;
        let nzl = pfft.kz_block().len;
        let zero = C64::new(0.0, 0.0);
        const KF: usize = dns_pfft::NL_FIELDS;
        const KP: usize = dns_pfft::NL_PRODUCTS;
        let mut uvw = vec![zero; KF * dns.field_len()];
        let state = dns.state();
        for kzl in 0..nzl {
            for (fi, field) in [state.u(), state.v(), state.w()].into_iter().enumerate() {
                for kxl in 0..sxl {
                    let src = (kzl * sxl + kxl) * ny;
                    let dst = ((kzl * KF + fi) * sxl + kxl) * ny;
                    ops.b0()
                        .matvec_complex(&field[src..src + ny], &mut uvw[dst..dst + ny]);
                }
            }
        }
        let mut products = Vec::new();
        pfft.nonlinear_products(&uvw, &mut products, &mut dns_pfft::Workspace::default());
        let (mut gline, mut coef) = (vec![zero; ny], vec![zero; ny]);
        let (mut dy1, mut dy2) = (vec![zero; ny], vec![zero; ny]);
        for mode in 0..dns.local_modes() {
            if dns.is_nyquist(mode) {
                continue;
            }
            let (kzl, kxl) = (mode / sxl, mode % sxl);
            let pline = |f: usize| -> &[C64] {
                let s = ((kzl * KP + f) * sxl + kxl) * ny;
                &products[s..s + ny]
            };
            let (pa, puv, puw, pvw, pb) = (pline(0), pline(1), pline(2), pline(3), pline(4));
            let dy_of = |vals: &[C64], coef: &mut [C64], out: &mut [C64]| {
                ops.interpolate_complex_into(vals, coef);
                ops.b1().matvec_complex(coef, out);
            };
            dy_of(puv, &mut coef, &mut dy1);
            dy_of(pvw, &mut coef, &mut dy2);
            if dns.is_mean(mode) {
                for j in 0..ny {
                    out.mean_hx[j] = -dy1[j].re;
                    out.mean_hz[j] = -dy2[j].re;
                }
                continue;
            }
            let (ikx, ikz, k2) = dns.mode_wavenumbers(mode);
            let (kx, kz) = (ikx.im, ikz.im);
            let col = dns.panel_col(mode);
            for j in 0..ny {
                let h_g = kx * kz * (pa[j] - pb[j]) + (kz * kz - kx * kx) * puw[j] - ikz * dy1[j]
                    + ikx * dy2[j];
                out.h_g.set(j, col, h_g);
                gline[j] = kx * kx * pa[j] + kz * kz * pb[j] + 2.0 * kx * kz * puw[j]
                    - ikx * dy1[j]
                    - ikz * dy2[j];
            }
            dy_of(&gline, &mut coef, &mut dy1);
            for j in 0..ny {
                out.h_v
                    .set(j, col, -dy1[j] + k2 * (ikx * puv[j] + ikz * pvw[j]));
            }
        }
        out
    }

    /// The active columns of a panel, one after the other.
    fn cols(p: &RhsPanel) -> Vec<C64> {
        (0..p.width()).flat_map(|r| p.col_to_vec(r)).collect()
    }

    /// The regular modes' columns of both panels and both mean lines, as
    /// bits (the mean mode's and the pad lanes' columns are never read).
    fn bits(dns: &ChannelDns, t: &NlTerms) -> Vec<u64> {
        let cols = |p: &RhsPanel| {
            let cols = dns.regular().flat_map(|m| p.col_to_vec(dns.panel_col(m)));
            cols.collect::<Vec<_>>()
        };
        cols(&t.h_g)
            .into_iter()
            .chain(cols(&t.h_v))
            .flat_map(|c| [c.re, c.im])
            .chain(t.mean_hx.iter().chain(&t.mean_hz).copied())
            .map(f64::to_bits)
            .collect()
    }

    #[test]
    fn blockwise_stages_equal_the_per_mode_oracle_bitwise() {
        // 1x1, a 2x2 grid, and a local kx count (nx = 20: 10) that is no
        // multiple of the lane count, so the last block is partial
        for params in [
            Params::channel(16, 25, 16, 100.0),
            Params::channel(16, 25, 16, 100.0).with_grid(2, 2),
            Params::channel(20, 25, 12, 100.0),
        ] {
            let outs = run_parallel(params, |dns| {
                perturbed(dns);
                // a reused output and workspace must not leak state
                let (mut out, mut ws) = (NlTerms::default(), NlWorkspace::default());
                compute_into(dns, &mut out, &mut ws);
                dns.step();
                compute_into(dns, &mut out, &mut ws);
                (
                    bits(dns, &out),
                    bits(dns, &compute_per_mode(dns)),
                    out.h_g.width(),
                )
            });
            for (got, want, width) in outs {
                assert!(width > 0 && want.iter().any(|&b| b != 0), "oracle ran");
                assert_eq!(got, want);
            }
        }
    }

    fn worst_mismatch(dns: &ChannelDns) -> f64 {
        let mut fused = NlTerms::default();
        compute_into(dns, &mut fused, &mut NlWorkspace::default());
        let oracle = compute_unfused(dns);
        let (f_g, o_g) = (cols(&fused.h_g), cols(&oracle.h_g));
        let (f_v, o_v) = (cols(&fused.h_v), cols(&oracle.h_v));
        let scale = o_g.iter().chain(&o_v).map(|c| c.norm()).fold(1.0, f64::max);
        let mut worst = 0.0f64;
        for (a, b) in f_g.iter().zip(&o_g).chain(f_v.iter().zip(&o_v)) {
            worst = worst.max((a - b).norm());
        }
        for (a, b) in fused.mean_hx.iter().zip(&oracle.mean_hx) {
            worst = worst.max((a - b).abs());
        }
        for (a, b) in fused.mean_hz.iter().zip(&oracle.mean_hz) {
            worst = worst.max((a - b).abs());
        }
        worst / scale
    }

    fn perturbed(dns: &mut ChannelDns) {
        dns.set_laminar(1.0);
        dns.add_perturbation(0.3, 9);
    }

    /// The triple inverse transform `ChannelDns::cfl` ran every step
    /// before the x-stage reduced the same number on the way:
    /// `dt * max(|u|/dx + |v|/dy_j + |w|/dz)` of the current state over the
    /// dealiased grid, by division.
    fn cfl_by_inverse_transforms(dns: &ChannelDns) -> f64 {
        let state = dns.state();
        let [phys_u, phys_v, phys_w] =
            [state.u(), state.v(), state.w()].map(|f| dns.pfft().inverse(&dns.field_values(f)));
        let (px, pz) = (dns.pfft().config().px(), dns.pfft().config().pz());
        let (dx, dz) = (dns.params().lx / px as f64, dns.params().lz / pz as f64);
        let pts = dns.ops().points();
        let row = dns.pfft().zphys_block().len * px;
        let mut worst = 0.0f64;
        for (idx, ((u, v), w)) in phys_u.iter().zip(&phys_v).zip(&phys_w).enumerate() {
            let j = dns.pfft().y_block().global(idx / row);
            let lo = if j > 0 {
                pts[j] - pts[j - 1]
            } else {
                pts[1] - pts[0]
            };
            let hi = if j + 1 < pts.len() {
                pts[j + 1] - pts[j]
            } else {
                pts[j] - pts[j - 1]
            };
            worst = worst.max(u.abs() / dx + v.abs() / lo.min(hi) + w.abs() / dz);
        }
        let worst = dns.pfft().comm_a().allreduce_max(worst);
        dns.pfft().comm_b().allreduce_max(worst) * dns.params().dt
    }

    #[test]
    fn x_stage_courant_number_equals_the_triple_inverse_oracle() {
        // nz = 20 pads to 30 physical z lines (15 per rank on 2x2):
        // never a whole number of lane blocks; stretched dy throughout
        let base = Params::channel(16, 25, 20, 100.0).with_dt(1e-3);
        let cases = [
            base.clone(),
            base.clone().with_fft_threads(2),
            base.clone().with_grid(2, 2),
        ];
        let mut serial_bits = None;
        for params in cases {
            let (threads, ranks) = (params.fft_threads, params.pa * params.pb);
            let outs = run_parallel(params, |dns| {
                perturbed(dns);
                assert_eq!(dns.courant(), 0.0, "nothing advected yet");
                let start = cfl_by_inverse_transforms(dns);
                dns.step();
                let (first, mid) = (dns.courant(), cfl_by_inverse_transforms(dns));
                dns.step();
                [start, first, mid, dns.courant()]
            });
            for &[start, first, mid, second] in &outs {
                assert!(start > 0.05, "trivial state: CFL {start}");
                // a step's first substep advects with the state the step
                // starts from; on this decaying flow that substep's number
                // is the step's. Same physical velocities in both routes:
                // the reduction multiplies by 1/dx, 1/dy_j, 1/dz where the
                // oracle divides
                assert!((first - start).abs() <= 1e-13 * start, "{outs:?}");
                assert!((second - mid).abs() <= 1e-13 * mid, "{outs:?}");
                // and the maximum visibly starts afresh with every step
                assert!(second < first, "{outs:?}");
                assert_eq!([first, second], [outs[0][1], outs[0][3]], "ranks agree");
            }
            if ranks == 1 {
                let bits = [outs[0][1], outs[0][3]].map(f64::to_bits);
                assert_eq!(*serial_bits.get_or_insert(bits), bits, "threads={threads}");
            }
        }
    }

    #[test]
    fn a_laminar_step_advects_with_the_cfl_of_its_state() {
        // Poiseuille flow is steady: all three substeps see one state
        let p = Params::channel(16, 25, 16, 50.0).with_dt(2e-3);
        let (before, stepped) = run_serial(p, |dns| {
            dns.set_laminar(1.0);
            let before = cfl_by_inverse_transforms(dns);
            dns.step();
            (before, dns.courant())
        });
        assert!(before > 0.1, "trivial state: CFL {before}");
        assert!(
            (stepped - before).abs() < 1e-9 * before,
            "{stepped} vs {before}"
        );
    }

    #[test]
    fn a_linearised_run_advects_nothing() {
        let mut p = Params::channel(16, 25, 16, 100.0);
        p.nonlinear = false;
        let courant = run_serial(p, |dns| {
            perturbed(dns);
            dns.step();
            dns.courant()
        });
        assert_eq!(courant, 0.0);
    }

    #[test]
    fn fused_terms_match_the_unfused_oracle() {
        let worst = run_serial(Params::channel(16, 25, 16, 100.0), |dns| {
            perturbed(dns);
            worst_mismatch(dns)
        });
        assert!(worst < 1e-12, "fused/oracle mismatch {worst}");
    }

    #[test]
    fn fused_terms_match_the_oracle_with_threads() {
        let worst = run_serial(
            Params::channel(16, 25, 16, 100.0).with_fft_threads(2),
            |dns| {
                perturbed(dns);
                worst_mismatch(dns)
            },
        );
        assert!(worst < 1e-12, "threaded fused/oracle mismatch {worst}");
    }

    #[test]
    fn fused_terms_match_the_oracle_on_a_process_grid() {
        let outs = run_parallel(Params::channel(16, 25, 16, 100.0).with_grid(2, 2), |dns| {
            perturbed(dns);
            worst_mismatch(dns)
        });
        // slightly looser than the serial bound: the 2x2 transpose
        // pack order changes the round-off pattern of both paths
        for worst in outs {
            assert!(worst < 1e-11, "multirank fused/oracle mismatch {worst}");
        }
    }
}
