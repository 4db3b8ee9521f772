//! The SoA particle store.
//!
//! CRK-HACC keeps particles in structure-of-arrays layout for coalesced
//! GPU access; we mirror that. One store holds every species on a rank
//! (owned particles first, then overload ghosts — see
//! [`crate::overload`]). [`ParticleRecord`] is the one declaration of what
//! a particle carries across a PM step: migrate and the overload ship it,
//! and the checkpoint writes it as [`ParticleRecord::COLUMNS`].

use hacc_iosim::format::Block;

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

    /// Append one particle; its rung starts at 0.
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

    /// The owned particles as one checkpoint block per
    /// [`ParticleRecord::COLUMNS`] entry, filled in one pass over the
    /// store. Positions are wrapped into `[0, box_size)`: the last
    /// substep's drift can leave one outside until the next migrate, but
    /// the checkpoint is the restart contract and must be canonical.
    pub(crate) fn checkpoint_blocks(&self, box_size: f64) -> Vec<Block> {
        let n = self.n_owned;
        let mut data: [Vec<u8>; COLUMN_COUNT] = std::array::from_fn(|_| Vec::with_capacity(8 * n));
        for i in 0..n {
            for (col, word) in data.iter_mut().zip(self.extract(i).words(box_size)) {
                col.extend_from_slice(&word.to_le_bytes());
            }
        }
        ParticleRecord::COLUMNS
            .iter()
            .zip(data)
            .map(|(name, data)| Block { name: name.to_string(), data })
            .collect()
    }

    /// The all-owned store that [`checkpoint_blocks`] wrote. The error
    /// names the column that is missing, differs in length from `x`, or
    /// (`species`) holds a code that is no [`Species`].
    ///
    /// [`checkpoint_blocks`]: ParticleStore::checkpoint_blocks
    pub(crate) fn from_checkpoint(blocks: &[Block]) -> Result<Self, &'static str> {
        let mut cols: [&[u8]; COLUMN_COUNT] = [&[]; COLUMN_COUNT];
        for (col, name) in cols.iter_mut().zip(ParticleRecord::COLUMNS) {
            *col = &blocks.iter().find(|b| b.name == name).ok_or(name)?.data;
        }
        // `x`'s whole words; a column of any other byte length fails.
        let len = cols[0].len() / 8 * 8;
        if let Some(k) = cols.iter().position(|c| c.len() != len) {
            return Err(ParticleRecord::COLUMNS[k]);
        }
        let mut store = Self::new();
        for at in (0..len).step_by(8) {
            let words = cols.map(|c| u64::from_le_bytes(std::array::from_fn(|k| c[at + k])));
            store.insert(ParticleRecord::from_words(words)?);
        }
        store.seal_owned();
        Ok(store)
    }
}

const COLUMN_COUNT: usize = ParticleRecord::COLUMNS.len();

/// Everything a particle carries from one PM step to the next: what
/// migrate and the overload exchange ship and the checkpoint writes.
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

impl ParticleRecord {
    /// The checkpoint's particle columns, in block order: the
    /// [`F64_COLUMNS`](Self::F64_COLUMNS) f64 columns, then `id` and the
    /// species code.
    pub const COLUMNS: [&'static str; 12] =
        ["x", "y", "z", "vx", "vy", "vz", "mass", "u", "metals", "h", "id", "species"];

    /// How many leading [`COLUMNS`](Self::COLUMNS) hold f64 values.
    pub const F64_COLUMNS: usize = 10;

    /// One word per [`COLUMNS`](Self::COLUMNS) entry: the f64 bit
    /// patterns (position wrapped into `[0, box_size)`), id, species code.
    /// The checkpoint's row, and the global state hash's.
    pub(crate) fn words(&self, box_size: f64) -> [u64; COLUMN_COUNT] {
        let [x, y, z] = self.pos.map(|p| p.rem_euclid(box_size).to_bits());
        let [vx, vy, vz] = self.vel.map(f64::to_bits);
        let [mass, u, metals, h] = [self.mass, self.u, self.metals, self.h].map(f64::to_bits);
        [x, y, z, vx, vy, vz, mass, u, metals, h, self.id, self.species as u64]
    }

    /// The record [`words`](Self::words) wrote; a species code other than
    /// 0, 1 or 2 fails, naming its column.
    fn from_words(w: [u64; COLUMN_COUNT]) -> Result<Self, &'static str> {
        const SPECIES: [Species; 3] = [Species::DarkMatter, Species::Gas, Species::Star];
        let species = *SPECIES.iter().find(|&&s| s as u64 == w[11]).ok_or(Self::COLUMNS[11])?;
        let f = |k: usize| f64::from_bits(w[k]);
        Ok(Self {
            pos: [f(0), f(1), f(2)],
            vel: [f(3), f(4), f(5)],
            mass: f(6),
            u: f(7),
            metals: f(8),
            h: f(9),
            id: w[10],
            species,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(x: f64, species: Species, id: u64) -> ParticleRecord {
        let gas = species == Species::Gas;
        ParticleRecord {
            pos: [x; 3],
            vel: [0.1 * x; 3],
            mass: 3.0,
            species,
            u: if gas { 10.0 * x } else { 0.0 },
            metals: 0.0,
            h: if gas { 0.5 } else { 0.0 },
            id,
        }
    }

    fn sample() -> ParticleStore {
        let mut s = ParticleStore::new();
        s.insert(record(1.0, Species::DarkMatter, 1));
        s.insert(record(2.0, Species::Gas, 2));
        s.insert(record(3.0, Species::Gas, 3));
        s.seal_owned();
        s
    }

    #[test]
    fn insert_and_seal() {
        let s = sample();
        assert_eq!(s.len(), 3);
        assert_eq!(s.n_owned, 3);
        assert_eq!(s.indices_of(Species::Gas), vec![1, 2]);
        assert_eq!(s.indices_of(Species::DarkMatter), vec![0]);
    }

    #[test]
    fn ghosts_truncated() {
        let mut s = sample();
        s.insert(record(9.0, Species::Gas, 99));
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
        // Every migrate and overload message carries these bytes.
        assert_eq!(std::mem::size_of::<ParticleRecord>(), 96);
        let s = sample();
        let r = s.extract(1);
        let mut t = ParticleStore::new();
        t.insert(r);
        t.seal_owned();
        assert_eq!(t.id[0], 2);
        assert_eq!(t.u[0], 20.0);
        assert_eq!(t.species[0], Species::Gas);
    }

    #[test]
    fn checkpoint_roundtrip_wraps_positions_and_keeps_owned_only() {
        let mut s = sample();
        s.metals[2] = 0.02;
        s.species[2] = Species::Star;
        s.pos[0][1] = -0.25;
        s.insert(record(9.0, Species::Gas, 99)); // a ghost: not written
        let blocks = s.checkpoint_blocks(8.0);
        let names: Vec<&str> = blocks.iter().map(|b| b.name.as_str()).collect();
        assert_eq!(names, ParticleRecord::COLUMNS);
        assert_eq!(blocks[1].as_f64(), vec![7.75, 2.0, 3.0]);
        let t = ParticleStore::from_checkpoint(&blocks).unwrap();
        assert_eq!(t.n_owned, 3);
        assert_eq!(t.pos[0], [1.0, 7.75, 1.0]);
        for i in 0..3 {
            let (a, b) = (s.extract(i), t.extract(i));
            assert_eq!(a.words(8.0), b.words(8.0));
        }
    }

    /// The decode cases the driver's resume test does not run: a column
    /// longer than `x`, an `x` with a partial word, a missing column.
    #[test]
    fn checkpoint_decode_names_the_bad_column() {
        let blocks = sample().checkpoint_blocks(8.0);
        let doctored = |name: &str, edit: &dyn Fn(&mut Block)| {
            let mut blocks = blocks.clone();
            blocks.iter_mut().filter(|b| b.name == name).for_each(edit);
            ParticleStore::from_checkpoint(&blocks).err()
        };
        assert_eq!(doctored("vz", &|b| b.data.extend([0; 8])), Some("vz"));
        assert_eq!(doctored("x", &|b| b.data.push(0)), Some("x"));
        assert_eq!(doctored("metals", &|b| b.name.clear()), Some("metals"));
    }
}
