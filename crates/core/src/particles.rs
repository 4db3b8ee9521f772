//! The SoA particle store.
//!
//! CRK-HACC keeps particles in structure-of-arrays layout for coalesced
//! GPU access; we mirror that. One store holds every species on a rank
//! (owned particles first, then overload ghosts — see
//! [`crate::overload`]).

/// Particle species.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Species {
    /// Dark matter tracer.
    DarkMatter = 0,
    /// Baryonic gas.
    Gas = 1,
    /// Collisionless star particle (formed during the run).
    Star = 2,
}

/// Structure-of-arrays particle storage.
#[derive(Debug, Clone, Default)]
pub struct ParticleStore {
    /// Comoving positions, Mpc/h, in `[0, box)³` for owned particles
    /// (ghosts may carry shifted images).
    pub pos: Vec<[f64; 3]>,
    /// Momentum variable `p = a² dx/dτ` (see [`crate::kicks`]).
    pub vel: Vec<[f64; 3]>,
    /// Masses, M_sun/h.
    pub mass: Vec<f64>,
    /// Species tags.
    pub species: Vec<Species>,
    /// Specific internal energy, (km/s)² (gas; zero otherwise).
    pub u: Vec<f64>,
    /// Metal mass fraction (gas/stars).
    pub metals: Vec<f64>,
    /// SPH smoothing length, Mpc/h (gas).
    pub h: Vec<f64>,
    /// Unique particle ids.
    pub id: Vec<u64>,
    /// Subcycle rung assignment: scratch of the PM step that assigns it,
    /// neither shipped with a [`ParticleRecord`] nor checkpointed.
    pub rung: Vec<u32>,
    /// Number of *owned* particles; entries beyond this are overload
    /// ghosts.
    pub n_owned: usize,
}

impl ParticleStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total count (owned + ghosts).
    pub fn len(&self) -> usize {
        self.pos.len()
    }

    /// No particles at all?
    pub fn is_empty(&self) -> bool {
        self.pos.is_empty()
    }

    /// Append one particle; returns its index.
    #[allow(clippy::too_many_arguments)]
    pub fn push(
        &mut self,
        pos: [f64; 3],
        vel: [f64; 3],
        mass: f64,
        species: Species,
        u: f64,
        h: f64,
        id: u64,
    ) -> usize {
        self.pos.push(pos);
        self.vel.push(vel);
        self.mass.push(mass);
        self.species.push(species);
        self.u.push(u);
        self.metals.push(0.0);
        self.h.push(h);
        self.id.push(id);
        self.rung.push(0);
        self.pos.len() - 1
    }

    /// Drop all ghosts, keeping owned particles only.
    pub fn truncate_to_owned(&mut self) {
        let n = self.n_owned;
        self.pos.truncate(n);
        self.vel.truncate(n);
        self.mass.truncate(n);
        self.species.truncate(n);
        self.u.truncate(n);
        self.metals.truncate(n);
        self.h.truncate(n);
        self.id.truncate(n);
        self.rung.truncate(n);
    }

    /// Mark the current length as all-owned (no ghosts).
    pub fn seal_owned(&mut self) {
        self.n_owned = self.len();
    }

    /// Remove the owned particle at `i` by swap-remove (order not
    /// preserved). Only valid when no ghosts are present.
    pub fn swap_remove(&mut self, i: usize) {
        assert_eq!(self.n_owned, self.len(), "remove with ghosts present");
        self.pos.swap_remove(i);
        self.vel.swap_remove(i);
        self.mass.swap_remove(i);
        self.species.swap_remove(i);
        self.u.swap_remove(i);
        self.metals.swap_remove(i);
        self.h.swap_remove(i);
        self.id.swap_remove(i);
        self.rung.swap_remove(i);
        self.n_owned -= 1;
    }

    /// Indices of owned particles of a species.
    pub fn indices_of(&self, s: Species) -> Vec<usize> {
        (0..self.n_owned)
            .filter(|&i| self.species[i] == s)
            .collect()
    }

    /// Indices (owned + ghost) of a species — what the short-range
    /// solvers operate on.
    pub fn indices_of_all(&self, s: Species) -> Vec<usize> {
        (0..self.len()).filter(|&i| self.species[i] == s).collect()
    }

    /// Allocation-free variant of [`indices_of_all`]: clears `out` and
    /// refills it, reusing its capacity. The per-step driver loop calls
    /// this every PM step with a long-lived scratch vector.
    ///
    /// [`indices_of_all`]: ParticleStore::indices_of_all
    pub fn indices_of_all_into(&self, s: Species, out: &mut Vec<usize>) {
        out.clear();
        out.extend((0..self.len()).filter(|&i| self.species[i] == s));
    }

    /// One particle's full record (for migration).
    pub fn extract(&self, i: usize) -> ParticleRecord {
        ParticleRecord {
            pos: self.pos[i],
            vel: self.vel[i],
            mass: self.mass[i],
            species: self.species[i],
            u: self.u[i],
            metals: self.metals[i],
            h: self.h[i],
            id: self.id[i],
        }
    }

    /// Append a migrated record.
    pub fn insert(&mut self, r: ParticleRecord) {
        self.pos.push(r.pos);
        self.vel.push(r.vel);
        self.mass.push(r.mass);
        self.species.push(r.species);
        self.u.push(r.u);
        self.metals.push(r.metals);
        self.h.push(r.h);
        self.id.push(r.id);
        self.rung.push(0);
    }
}

/// A self-contained particle record used for rank-to-rank migration.
#[derive(Debug, Clone, Copy)]
pub struct ParticleRecord {
    /// Position.
    pub pos: [f64; 3],
    /// Momentum variable.
    pub vel: [f64; 3],
    /// Mass.
    pub mass: f64,
    /// Species.
    pub species: Species,
    /// Internal energy.
    pub u: f64,
    /// Metallicity.
    pub metals: f64,
    /// Smoothing length.
    pub h: f64,
    /// Id.
    pub id: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ParticleStore {
        let mut s = ParticleStore::new();
        s.push([1.0; 3], [0.0; 3], 5.0, Species::DarkMatter, 0.0, 0.0, 1);
        s.push([2.0; 3], [0.1; 3], 3.0, Species::Gas, 10.0, 0.5, 2);
        s.push([3.0; 3], [0.2; 3], 3.0, Species::Gas, 20.0, 0.5, 3);
        s.seal_owned();
        s
    }

    #[test]
    fn push_and_seal() {
        let s = sample();
        assert_eq!(s.len(), 3);
        assert_eq!(s.n_owned, 3);
        assert_eq!(s.indices_of(Species::Gas), vec![1, 2]);
        assert_eq!(s.indices_of(Species::DarkMatter), vec![0]);
    }

    #[test]
    fn ghosts_truncated() {
        let mut s = sample();
        s.push([9.0; 3], [0.0; 3], 1.0, Species::Gas, 5.0, 0.5, 99);
        assert_eq!(s.len(), 4);
        assert_eq!(s.indices_of(Species::Gas), vec![1, 2], "owned only");
        assert_eq!(s.indices_of_all(Species::Gas), vec![1, 2, 3]);
        let mut scratch = vec![7usize; 9]; // stale contents must be cleared
        s.indices_of_all_into(Species::Gas, &mut scratch);
        assert_eq!(scratch, vec![1, 2, 3]);
        s.indices_of_all_into(Species::DarkMatter, &mut scratch);
        assert_eq!(scratch, vec![0]);
        s.truncate_to_owned();
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn migration_roundtrip() {
        let s = sample();
        let r = s.extract(1);
        let mut t = ParticleStore::new();
        t.insert(r);
        t.seal_owned();
        assert_eq!(t.id[0], 2);
        assert_eq!(t.u[0], 10.0);
        assert_eq!(t.species[0], Species::Gas);
    }

    #[test]
    fn swap_remove_star_formation_pattern() {
        let mut s = sample();
        s.swap_remove(0);
        assert_eq!(s.len(), 2);
        assert_eq!(s.n_owned, 2);
        // Last element swapped in.
        assert_eq!(s.id[0], 3);
    }
}
