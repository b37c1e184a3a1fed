//! Per-atom data: the exact payload of the paper's Listing 4.
//!
//! The original code packs 14 scalars (`local_id`, `jmt`, `jws`, `xstart`,
//! `rmt`, `header[80]`, `alat`, `efermi`, `vdif`, `ztotss`, `zcorss`,
//! `evec[3]`, `nspin`, `numc`), then the potential/density matrices
//! (`vr`, `rhotot`: `2*t` doubles each with `t = vr.n_row()`), then the
//! core-state matrices (`ec`: `2*t` doubles; `nc`, `lc`, `kc`: `2*t` ints
//! with `t = ec.n_row()`).
//!
//! The directive version (Listing 5) groups the scalars into a single
//! composite — [`AtomScalars`], declared with `comm_datatype!` so the MPI
//! struct type is generated automatically — and ships the matrices as two
//! grouped buffer lists.

use std::io::Write;

use commint::comm_datatype;
use mpisim::pod::Pod;

use crate::matrix::Matrix;

comm_datatype! {
    /// The scalar members of the single-atom data, grouped into one
    /// composite ("we organized the scalar data into a single structure") —
    /// the directive's automatic data-type handling builds the MPI struct
    /// from this layout.
    pub struct AtomScalars {
        pub local_id: i32,
        pub jmt: i32,
        pub jws: i32,
        pub xstart: f64,
        pub rmt: f64,
        pub header: [u8; 80],
        pub alat: f64,
        pub efermi: f64,
        pub vdif: f64,
        pub ztotss: f64,
        pub zcorss: f64,
        pub evec: [f64; 3],
        pub nspin: i32,
        pub numc: i32,
    }
}

impl Default for AtomScalars {
    fn default() -> Self {
        AtomScalars {
            local_id: 0,
            jmt: 0,
            jws: 0,
            xstart: 0.0,
            rmt: 0.0,
            header: [0u8; 80],
            alat: 0.0,
            efermi: 0.0,
            vdif: 0.0,
            ztotss: 0.0,
            zcorss: 0.0,
            evec: [0.0; 3],
            nspin: 0,
            numc: 0,
        }
    }
}

/// Full single-atom data: scalars plus the potential / density / core-state
/// matrices.
#[derive(Clone, Debug, PartialEq)]
pub struct AtomData {
    /// The scalar block.
    pub scalars: AtomScalars,
    /// Potential, `jmt x 2` (spin up/down), column-major.
    pub vr: Matrix<f64>,
    /// Total charge density, same shape as `vr`.
    pub rhotot: Matrix<f64>,
    /// Core-state energies, `numc x 2`.
    pub ec: Matrix<f64>,
    /// Core-state principal quantum numbers, `numc x 2`.
    pub nc: Matrix<i32>,
    /// Core-state angular momenta, `numc x 2`.
    pub lc: Matrix<i32>,
    /// Core-state kappa numbers, `numc x 2`.
    pub kc: Matrix<i32>,
}

/// Mesh/core sizes used to build atoms (defaults match a realistic LSMS
/// iron atom: ~1000 radial points, ~15 core states).
#[derive(Clone, Copy, Debug)]
pub struct AtomSizes {
    /// Radial mesh points (`jmt`).
    pub jmt: usize,
    /// Number of core states (`numc`).
    pub numc: usize,
}

impl Default for AtomSizes {
    fn default() -> Self {
        AtomSizes {
            jmt: 1000,
            numc: 15,
        }
    }
}

impl AtomData {
    /// An empty atom with the given mesh sizes.
    pub fn new(sizes: AtomSizes) -> Self {
        AtomData {
            scalars: AtomScalars {
                jmt: sizes.jmt as i32,
                jws: sizes.jmt as i32,
                numc: sizes.numc as i32,
                nspin: 2,
                ..AtomScalars::default()
            },
            vr: Matrix::new(sizes.jmt, 2),
            rhotot: Matrix::new(sizes.jmt, 2),
            ec: Matrix::new(sizes.numc, 2),
            nc: Matrix::new(sizes.numc, 2),
            lc: Matrix::new(sizes.numc, 2),
            kc: Matrix::new(sizes.numc, 2),
        }
    }

    /// Deterministic synthetic iron-like atom `id` (the experiments use 16
    /// iron atoms; values are reproducible functions of `id`). A caller
    /// that builds or checks many atoms of one mesh keeps a [`SyntheticFe`].
    pub fn synthetic_fe(id: usize, sizes: AtomSizes) -> Self {
        SyntheticFe::new(sizes).atom(id)
    }

    /// Total communicated payload in bytes (scalars packed + matrices), as
    /// shipped by either communication path.
    pub fn payload_bytes(&self) -> usize {
        use commint::buffer::Described;
        let t_pot = self.vr.n_row();
        let t_core = self.ec.n_row();
        AtomScalars::layout().packed_size()
            + 2 * (2 * t_pot) * 8 // vr + rhotot
            + (2 * t_core) * 8 // ec
            + 3 * (2 * t_core) * 4 // nc, lc, kc
    }

    /// Grow the potential/density matrices (the original's
    /// `resizePotential(t+50)` on the receive side).
    pub fn resize_potential(&mut self, rows: usize) {
        self.vr.resize(rows, 2);
        self.rhotot.resize(rows, 2);
    }

    /// Grow the core-state matrices (`resizeCore(t)`).
    pub fn resize_core(&mut self, rows: usize) {
        self.ec.resize(rows, 2);
        self.nc.resize(rows, 2);
        self.lc.resize(rows, 2);
        self.kc.resize(rows, 2);
    }
}

/// The synthetic iron atoms of one mesh. Every value of atom `id` is a
/// closed form in `id` and the element's (row, column), and every matrix
/// element is an id-free part plus `id · 1e-3` (the integer matrices have
/// no id term). The id-free parts, among them the `exp` of every `vr`
/// element, are computed once here; [`SyntheticFe::fill`] then writes an
/// atom in place and [`SyntheticFe::matches`] checks one against the
/// closed form, so a run that moves many atoms builds none of them twice
/// and allocates nothing per atom.
#[derive(Clone, Debug)]
pub struct SyntheticFe {
    sizes: AtomSizes,
    /// The matrices' id-free parts (`fill` adds the id term to the `f64`
    /// ones); its scalars are unused.
    base: AtomData,
}

impl SyntheticFe {
    /// The generator for atoms of `sizes`.
    pub fn new(sizes: AtomSizes) -> Self {
        let mut base = AtomData::new(sizes);
        let jmt = sizes.jmt as f64;
        base.vr.fill_with(|r, c| {
            let x = (r + 1) as f64 / jmt;
            -2.0 * 26.0 * (-x).exp() / x + c as f64 * 0.01
        });
        base.rhotot
            .fill_with(|r, c| ((r + 1) as f64 / jmt).powi(2) * (26.0 - c as f64));
        base.ec
            .fill_with(|r, c| -(2.0 * (r + 1) as f64) + 0.1 * c as f64);
        base.nc.fill_with(|r, _| (r / 4 + 1) as i32);
        base.lc.fill_with(|r, _| (r % 4) as i32);
        base.kc
            .fill_with(|r, c| if c == 0 { -(r as i32) - 1 } else { r as i32 });
        SyntheticFe { sizes, base }
    }

    /// The mesh sizes of the generated atoms.
    pub fn sizes(&self) -> AtomSizes {
        self.sizes
    }

    /// Atom `id`, freshly allocated.
    pub fn atom(&self, id: usize) -> AtomData {
        let mut atom = AtomData::new(self.sizes);
        self.fill(&mut atom, id);
        atom
    }

    /// Overwrite `atom` with atom `id`, reshaping its matrices if they are
    /// not of this mesh.
    pub fn fill(&self, atom: &mut AtomData, id: usize) {
        let b = &self.base;
        let idf = id_term(id);
        atom.scalars = self.scalars(id);
        for (m, base) in [
            (&mut atom.vr, &b.vr),
            (&mut atom.rhotot, &b.rhotot),
            (&mut atom.ec, &b.ec),
        ] {
            m.resize(base.n_row(), base.n_col());
            for (v, base) in m.as_mut_slice().iter_mut().zip(base.as_slice()) {
                *v = base + idf;
            }
        }
        for (m, base) in [
            (&mut atom.nc, &b.nc),
            (&mut atom.lc, &b.lc),
            (&mut atom.kc, &b.kc),
        ] {
            m.resize(base.n_row(), base.n_col());
            m.as_mut_slice().copy_from_slice(base.as_slice());
        }
    }

    /// Whether `atom` equals atom `id` under `AtomData`'s `==`: the same
    /// shapes, scalars (header included) and matrix elements. Allocates
    /// nothing.
    pub fn matches(&self, atom: &AtomData, id: usize) -> bool {
        let b = &self.base;
        let idf = id_term(id);
        let with_id = |m: &Matrix<f64>, base: &Matrix<f64>| {
            same_shape(m, base)
                && (m.as_slice().iter())
                    .zip(base.as_slice())
                    .all(|(v, base)| *v == base + idf)
        };
        atom.scalars == self.scalars(id)
            && with_id(&atom.vr, &b.vr)
            && with_id(&atom.rhotot, &b.rhotot)
            && with_id(&atom.ec, &b.ec)
            && atom.nc == b.nc
            && atom.lc == b.lc
            && atom.kc == b.kc
    }

    fn scalars(&self, id: usize) -> AtomScalars {
        let mut header = [0u8; 80];
        // Written into the array, truncated at 80 bytes, without a `String`.
        let _ = write!(
            &mut header[..],
            "Fe atom {id:03} WL-LSMS synthetic potential"
        );
        AtomScalars {
            local_id: id as i32,
            jmt: self.sizes.jmt as i32,
            jws: self.sizes.jmt as i32,
            xstart: -11.13096,
            rmt: 2.2677 + id as f64 * 1e-4,
            header,
            alat: 5.42,
            efermi: 0.7219,
            vdif: 0.0,
            ztotss: 26.0, // iron
            zcorss: 18.0,
            evec: [0.0, 0.0, 1.0],
            nspin: 2,
            numc: self.sizes.numc as i32,
        }
    }
}

/// The id term every `f64` matrix element of atom `id` ends with.
fn id_term(id: usize) -> f64 {
    id as f64 * 1e-3
}

fn same_shape<T: Pod + Default>(a: &Matrix<T>, b: &Matrix<T>) -> bool {
    a.n_row() == b.n_row() && a.n_col() == b.n_col()
}

#[cfg(test)]
mod tests {
    use super::*;
    use commint::buffer::Described;

    #[test]
    fn scalar_layout_matches_listing4() {
        let layout = AtomScalars::layout();
        // 14 packed items in Listing 4 (local_id..numc).
        assert_eq!(layout.fields().len(), 14);
        let names: Vec<&str> = layout.fields().iter().map(|f| f.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "local_id", "jmt", "jws", "xstart", "rmt", "header", "alat", "efermi", "vdif",
                "ztotss", "zcorss", "evec", "nspin", "numc"
            ]
        );
        // header is an 80-char block, evec three doubles.
        assert_eq!(layout.fields()[5].blocklen, 80);
        assert_eq!(layout.fields()[11].blocklen, 3);
        // Packed size: 5 ints + 7 doubles + 80 chars + 3 doubles.
        assert_eq!(layout.packed_size(), 5 * 4 + 7 * 8 + 80 + 3 * 8);
        // The padding after `jws` is the only break: the derived datatype
        // copies the fourteen fields as two runs.
        let mut runs = Vec::new();
        layout.datatype().walk(1, |r| runs.push(r));
        assert_eq!(runs, vec![0..12, 16..184]);
    }

    #[test]
    fn synthetic_atoms_deterministic_and_distinct() {
        let a = AtomData::synthetic_fe(3, AtomSizes::default());
        let b = AtomData::synthetic_fe(3, AtomSizes::default());
        let c = AtomData::synthetic_fe(4, AtomSizes::default());
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.scalars.ztotss, 26.0);
        assert!(String::from_utf8_lossy(&a.scalars.header).contains("Fe atom 003"));
    }

    /// The closed form as `synthetic_fe` wrote it before [`SyntheticFe`]
    /// existed: one `exp` per `vr` element, the header through `format!`.
    fn closed_form(id: usize, sizes: AtomSizes) -> AtomData {
        let mut atom = AtomData::new(sizes);
        let s = &mut atom.scalars;
        s.local_id = id as i32;
        s.xstart = -11.13096;
        s.rmt = 2.2677 + id as f64 * 1e-4;
        s.alat = 5.42;
        s.efermi = 0.7219;
        s.vdif = 0.0;
        s.ztotss = 26.0;
        s.zcorss = 18.0;
        s.evec = [0.0, 0.0, 1.0];
        let hdr = format!("Fe atom {id:03} WL-LSMS synthetic potential");
        s.header[..hdr.len().min(80)].copy_from_slice(&hdr.as_bytes()[..hdr.len().min(80)]);
        let jmt = sizes.jmt as f64;
        atom.vr.fill_with(|r, c| {
            let x = (r + 1) as f64 / jmt;
            -2.0 * 26.0 * (-x).exp() / x + c as f64 * 0.01 + id as f64 * 1e-3
        });
        atom.rhotot.fill_with(|r, c| {
            ((r + 1) as f64 / jmt).powi(2) * (26.0 - c as f64) + id as f64 * 1e-3
        });
        atom.ec
            .fill_with(|r, c| -(2.0 * (r + 1) as f64) + 0.1 * c as f64 + id as f64 * 1e-3);
        atom.nc.fill_with(|r, _| (r / 4 + 1) as i32);
        atom.lc.fill_with(|r, _| (r % 4) as i32);
        atom.kc
            .fill_with(|r, c| if c == 0 { -(r as i32) - 1 } else { r as i32 });
        atom
    }

    fn bits(m: &Matrix<f64>) -> Vec<u64> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    const MESHES: [AtomSizes; 4] = [
        AtomSizes {
            jmt: 1000,
            numc: 15,
        },
        AtomSizes { jmt: 24, numc: 4 },
        AtomSizes { jmt: 40, numc: 6 },
        AtomSizes { jmt: 333, numc: 1 },
    ];

    #[test]
    fn fill_is_bit_identical_to_the_closed_form() {
        assert_eq!(MESHES[0].jmt, AtomSizes::default().jmt);
        assert_eq!(MESHES[0].numc, AtomSizes::default().numc);
        for sizes in MESHES {
            let fe = SyntheticFe::new(sizes);
            // One atom reused across ids, starting from another mesh, as a
            // Fig. 3 master reuses its send buffer.
            let mut atom = AtomData::new(AtomSizes { jmt: 7, numc: 2 });
            for id in 0..400 {
                let want = closed_form(id, sizes);
                fe.fill(&mut atom, id);
                assert_eq!(atom.scalars, want.scalars, "{sizes:?} id {id}");
                assert_eq!(atom.scalars.rmt.to_bits(), want.scalars.rmt.to_bits());
                for (got, want) in [
                    (&atom.vr, &want.vr),
                    (&atom.rhotot, &want.rhotot),
                    (&atom.ec, &want.ec),
                ] {
                    assert_eq!(got.n_row(), want.n_row(), "{sizes:?} id {id}");
                    assert_eq!(bits(got), bits(want), "{sizes:?} id {id}");
                }
                assert_eq!(atom, want, "{sizes:?} id {id}");
                assert!(fe.matches(&atom, id), "{sizes:?} id {id}");
                assert_eq!(AtomData::synthetic_fe(id, sizes), want);
            }
        }
    }

    #[test]
    fn matches_rejects_every_kind_of_difference() {
        let sizes = AtomSizes::default();
        let fe = SyntheticFe::new(sizes);
        let id = 123;
        let good = fe.atom(id);
        assert!(fe.matches(&good, id));
        assert!(!fe.matches(&good, id + 1), "another atom");
        assert!(!fe.matches(&AtomData::new(sizes), id), "an empty atom");

        let ulp = |v: &mut f64| *v = f64::from_bits(v.to_bits() + 1);
        let rejects = |what: &str, edit: &dyn Fn(&mut AtomData)| {
            let mut bad = good.clone();
            edit(&mut bad);
            assert_ne!(bad, good, "{what}: the edit changed nothing");
            assert!(!fe.matches(&bad, id), "{what} accepted");
        };
        rejects("vr, one ulp", &|a| ulp(a.vr.at_mut(999, 1)));
        rejects("rhotot, one ulp", &|a| ulp(a.rhotot.at_mut(0, 0)));
        rejects("ec, one ulp", &|a| ulp(a.ec.at_mut(14, 1)));
        rejects("nc", &|a| *a.nc.at_mut(3, 0) += 1);
        rejects("lc", &|a| *a.lc.at_mut(7, 1) += 1);
        rejects("kc", &|a| *a.kc.at_mut(14, 0) -= 1);
        rejects("a header byte", &|a| a.scalars.header[79] = b'x');
        rejects("a scalar", &|a| ulp(&mut a.scalars.efermi));
        rejects("a resized matrix", &|a| a.resize_potential(1001));
        rejects("a matrix of other width", &|a| a.lc.resize(15, 3));
    }

    #[test]
    fn payload_size_realistic() {
        let atom = AtomData::synthetic_fe(0, AtomSizes::default());
        let bytes = atom.payload_bytes();
        // ~32KB of potential data dominates.
        assert!(bytes > 32_000 && bytes < 40_000, "got {bytes}");
    }

    #[test]
    fn resize_paths() {
        let mut atom = AtomData::new(AtomSizes { jmt: 10, numc: 4 });
        atom.resize_potential(60);
        assert_eq!(atom.vr.n_row(), 60);
        assert_eq!(atom.rhotot.n_row(), 60);
        atom.resize_core(8);
        assert_eq!(atom.ec.n_row(), 8);
        assert_eq!(atom.kc.n_row(), 8);
    }
}
