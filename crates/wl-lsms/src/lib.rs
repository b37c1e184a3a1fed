//! # wl-lsms — the paper's case-study application, reproduced
//!
//! A mini-app faithful to the communication structure of WL-LSMS
//! (Wang–Landau + Locally Self-consistent Multiple Scattering, Eisenbach et
//! al., SC'09), the application the paper rewrites with communication
//! directives:
//!
//! * [`topology`] — 1 WL master + M LSMS instances × N ranks, privileged
//!   relays, LIZ structure (paper Figs. 1–2);
//! * [`atom`] — the exact single-atom payload of Listing 4 (14 scalars +
//!   potential/density/core-state matrices), with the scalars grouped into
//!   a `comm_datatype!` composite as in Listing 5;
//! * [`atom_comm`] — the original `MPI_Pack` path (Listing 4) and the
//!   directive region (Listing 5), side by side;
//! * [`spin`] — `setEvec`: Listing 6's Isend/Wait-loop original, the
//!   Waitall-modified variant, and Listing 7's directive version with
//!   communication/computation overlap;
//! * [`core_states`] — the `calculateCoreStates` kernel with the 19:1
//!   compute:comm ratio and the 10x GPU projection;
//! * [`wang_landau`] — the WL density-of-states driver;
//! * [`experiments`] — the assembled Fig. 3 / Fig. 4 / Fig. 5 measurements
//!   and the full-app equivalence harness.

pub mod atom;
pub mod atom_comm;
pub mod core_states;
pub mod experiments;
pub mod matrix;
pub mod spin;
pub mod topology;
pub mod wang_landau;

pub use atom::{AtomData, AtomScalars, AtomSizes, SyntheticFe};
pub use core_states::CoreStateParams;
pub use experiments::{
    fig3_single_atom, fig3_single_atom_exec, fig3_single_atom_observed, fig4_spin, fig4_spin_exec,
    fig4_spin_observed, fig4_spin_tuned, fig4_spin_tuned_observed, fig5_overlap, fig5_overlap_exec,
    fig5_overlap_observed, run_full_app, AtomCommVariant, Measurement, Observed,
};
pub use spin::{SpinState, SpinVariant};
pub use topology::Topology;
pub use wang_landau::WangLandau;
