//! One-dimensional energy spectra — the signature data products of the
//! channel-DNS reference datasets (del Alamo et al. 2004; Lee & Moser
//! 2015), computed directly from the spectral representation.

use crate::solver::ChannelDns;
use crate::C64;
use dns_bspline::integration_weights;

/// Energy spectra of the three velocity components, integrated over y.
#[derive(Clone, Debug)]
pub struct Spectra {
    /// Streamwise wavenumber indices `0..nx/2`.
    pub kx: Vec<usize>,
    /// `E_uu(kx)`, y-integrated.
    pub euu_kx: Vec<f64>,
    /// `E_vv(kx)`.
    pub evv_kx: Vec<f64>,
    /// `E_ww(kx)`.
    pub eww_kx: Vec<f64>,
    /// Spanwise wavenumber indices `0..nz/2`.
    pub kz: Vec<usize>,
    /// `E_uu(kz)`.
    pub euu_kz: Vec<f64>,
    /// `E_vv(kz)`.
    pub evv_kz: Vec<f64>,
    /// `E_ww(kz)`.
    pub eww_kz: Vec<f64>,
}

/// Compute y-integrated 1D spectra (collective). The mean mode is
/// excluded; the `kx` spectra sum over kz and vice versa; negative kz
/// fold onto their magnitude.
pub fn spectra(dns: &ChannelDns) -> Spectra {
    let ny = dns.params().ny;
    let (sx, hz) = (dns.params().nx / 2, dns.params().nz / 2);
    let weights = integration_weights(dns.ops());
    let ops = dns.ops();
    // accumulators: [component][kx] and [component][|kz|]
    let mut acc = vec![0.0f64; 3 * sx + 3 * hz];
    let mut vals = vec![C64::new(0.0, 0.0); ny];
    let kxlen = dns.pfft().kx_block().len;
    for m in 0..dns.local_modes() {
        if dns.is_nyquist(m) || dns.is_mean(m) {
            continue;
        }
        let kx_g = dns.pfft().kx_block().global(m % kxlen);
        let kz_g = dns.pfft().kz_block().global(m / kxlen);
        let kz_abs = if kz_g <= hz {
            kz_g
        } else {
            dns.params().nz - kz_g
        };
        let w = dns.mode_weight(m);
        let r = dns.line_range(m);
        for (c, field) in [dns.state().u(), dns.state().v(), dns.state().w()]
            .into_iter()
            .enumerate()
        {
            ops.b0().matvec_complex(&field[r.clone()], &mut vals);
            let e: f64 = vals
                .iter()
                .zip(&weights)
                .map(|(v, &wy)| wy * v.norm_sqr())
                .sum::<f64>()
                * w;
            acc[c * sx + kx_g] += e;
            if kz_abs < hz {
                acc[3 * sx + c * hz + kz_abs] += e;
            }
        }
    }
    let acc = dns.pfft().comm_a().allreduce(&acc, |a, b| a + b);
    let acc = dns.pfft().comm_b().allreduce(&acc, |a, b| a + b);
    Spectra {
        kx: (0..sx).collect(),
        euu_kx: acc[..sx].to_vec(),
        evv_kx: acc[sx..2 * sx].to_vec(),
        eww_kx: acc[2 * sx..3 * sx].to_vec(),
        kz: (0..hz).collect(),
        euu_kz: acc[3 * sx..3 * sx + hz].to_vec(),
        evv_kz: acc[3 * sx + hz..3 * sx + 2 * hz].to_vec(),
        eww_kz: acc[3 * sx + 2 * hz..].to_vec(),
    }
}

/// Spanwise premultiplied spectrum of `u` at one wall-normal collocation
/// index (collective): `E_uu(kz; y)`, folding negative kz onto |kz|. The
/// peak of `kz * E_uu` near the wall sits at the near-wall streak
/// spacing (lambda+ ~ 100), the structure visible in figure 8.
pub fn spanwise_u_spectrum_at(dns: &ChannelDns, y_index: usize) -> Vec<f64> {
    let ny = dns.params().ny;
    assert!(y_index < ny);
    let hz = dns.params().nz / 2;
    let mut acc = vec![0.0f64; hz];
    let mut vals = vec![C64::new(0.0, 0.0); ny];
    let kxlen = dns.pfft().kx_block().len;
    let ops = dns.ops();
    for m in 0..dns.local_modes() {
        if dns.is_nyquist(m) || dns.is_mean(m) {
            continue;
        }
        let kz_g = dns.pfft().kz_block().global(m / kxlen);
        let kz_abs = if kz_g <= hz {
            kz_g
        } else {
            dns.params().nz - kz_g
        };
        if kz_abs >= hz {
            continue;
        }
        let w = dns.mode_weight(m);
        let r = dns.line_range(m);
        ops.b0().matvec_complex(&dns.state().u()[r], &mut vals);
        acc[kz_abs] += w * vals[y_index].norm_sqr();
    }
    let acc = dns.pfft().comm_a().allreduce(&acc, |a, b| a + b);
    dns.pfft().comm_b().allreduce(&acc, |a, b| a + b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Params;
    use crate::solver::run_serial;
    use crate::stats::profiles;

    #[test]
    fn spectra_are_consistent_with_profile_variances() {
        let p = Params::channel(16, 25, 16, 80.0).with_dt(1e-3);
        let (spec, prof, weights) = run_serial(p, |dns| {
            dns.set_laminar(0.5);
            dns.add_perturbation(0.4, 13);
            for _ in 0..5 {
                dns.step();
            }
            (
                spectra(dns),
                profiles(dns),
                dns_bspline::integration_weights(dns.ops()),
            )
        });
        // sum of kx spectrum = y-integrated total variance
        let total_prof: f64 = prof
            .uu
            .iter()
            .zip(&prof.vv)
            .zip(&prof.ww)
            .zip(&weights)
            .map(|(((a, b), c), &w)| w * (a + b + c))
            .sum();
        let total_spec: f64 = [&spec.euu_kx, &spec.evv_kx, &spec.eww_kx]
            .iter()
            .map(|e| e.iter().sum::<f64>())
            .sum();
        assert!(
            (total_prof - total_spec).abs() < 1e-10 * total_prof.max(1e-30),
            "{total_prof} vs {total_spec}"
        );
        // energy actually lives in the low modes we seeded
        assert!(spec.euu_kx[1] + spec.euu_kx[2] + spec.euu_kx[3] > 0.0);
    }

    #[test]
    fn spanwise_spectrum_at_y_sums_to_local_uu_variance() {
        let p = Params::channel(16, 25, 16, 80.0).with_dt(1e-3);
        let (spec_mid, prof) = run_serial(p, |dns| {
            dns.set_laminar(0.5);
            dns.add_perturbation(0.4, 23);
            for _ in 0..3 {
                dns.step();
            }
            let yj = dns.params().ny / 2;
            (spanwise_u_spectrum_at(dns, yj), profiles(dns))
        });
        let total: f64 = spec_mid.iter().sum();
        let want = prof.uu[prof.uu.len() / 2];
        assert!(
            (total - want).abs() < 1e-12 * want.max(1e-30),
            "{total} vs {want}"
        );
    }

    #[test]
    fn single_mode_lands_in_the_right_bin() {
        let p = Params::channel(16, 25, 16, 80.0);
        let spec = run_serial(p, |dns| {
            dns.add_perturbation(0.2, 3);
            spectra(dns)
        });
        // perturbations were seeded only in |kx|,|kz| <= 3
        for k in 5..spec.kx.len() {
            assert_eq!(spec.euu_kx[k], 0.0, "kx={k}");
        }
        for k in 5..spec.kz.len() {
            assert_eq!(spec.euu_kz[k], 0.0, "kz={k}");
        }
    }
}
