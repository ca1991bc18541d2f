// Package checkpoint serializes and restores rt-TDDFT simulation state -
// wavefunctions, simulation time, and metadata - so long runs (the paper's
// production runs are 600 steps over many hours) can be split across job
// allocations, preempted, and recovered after a crash. The format is one
// little-endian binary stream:
//
//	header            15 words: magic, version, time, step, bands, NG, atoms,
//	                  Ecut, hybrid, MTS period, MTS phase, ACE flag
//	                  (1 exactly when the MTS period is set),
//	                  reference bands, ions, ion steps - then its CRC64
//	psi               bands x NG complex coefficients, then their CRC64
//	frozen reference  (mid MTS cycle only) bands x NG, then its CRC64
//	ions              (Ehrenfest MD only) positions, velocities, cached
//	                  forces of every atom, then their CRC64
//	file checksum     CRC64 of everything above
//
// The MTS words carry the refresh period and the phase within the M-step
// cycle; a save that lands mid-cycle adds the frozen exchange reference of
// the last outer step, so a resumed segment reconstructs the identical
// frozen operator instead of silently refreshing early. The ion section's
// cached force is what makes an MD resume bit-compatible: the first half
// kick after it uses the stored force, not a recomputation subject to
// parallel reduction order. The header checksum is verified before any
// size word is trusted for an allocation, and the per-section checksums
// attribute corruption to a named field and byte range. There is one
// format version; any other is rejected.
package checkpoint

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"io"
	"math"
	"os"
	"path/filepath"
)

const (
	magic   = 0x70746466_74636b70 // "ptdftckp"
	version = 4
)

var crcTab = crc64.MakeTable(crc64.ECMA)

// State is the restartable simulation state.
type State struct {
	Time   float64 // simulation time (au)
	Step   int64   // step counter
	NBands int
	NG     int
	Natom  int64 // system identification for mismatch detection
	Ecut   float64
	Hybrid bool
	Psi    []complex128 // band-major sphere coefficients

	// MTS cadence state. MTSPeriod is the refresh period M the run
	// propagated under (0 when MTS was off; MTS always holds the ACE
	// compression), MTSPhase the position within the M-step cycle at save
	// time (Step mod M). PhiRef carries the frozen exchange reference
	// orbitals of the last outer step - band-major, NBands x NG - and is
	// present exactly when the save landed mid-cycle (MTSPhase > 0 on a
	// hybrid run); at a cycle boundary the next step rebuilds from Psi
	// anyway, so nothing is stored.
	MTSPeriod int64
	MTSPhase  int64
	PhiRef    []complex128

	// Ehrenfest ion state, present exactly when the run moved ions
	// (-md): positions, velocities and the cached Hellmann-Feynman
	// force of every atom (all length Natom), plus the count of completed
	// ion steps. The force cache is what makes the resume bit-compatible:
	// velocity Verlet opens every step with a half kick from the force of
	// the previous step's close.
	IonSteps int64
	IonPos   [][3]float64
	IonVel   [][3]float64
	IonForce [][3]float64
}

// HasIons reports whether the state carries an Ehrenfest ion section.
func (s *State) HasIons() bool { return len(s.IonPos) > 0 }

// Save writes the state to w.
func Save(w io.Writer, s *State) error {
	if len(s.Psi) != s.NBands*s.NG {
		return fmt.Errorf("checkpoint: psi length %d != %d bands x %d", len(s.Psi), s.NBands, s.NG)
	}
	if len(s.PhiRef) != 0 && len(s.PhiRef) != s.NBands*s.NG {
		return fmt.Errorf("checkpoint: frozen reference length %d != %d bands x %d", len(s.PhiRef), s.NBands, s.NG)
	}
	nion := len(s.IonPos)
	if len(s.IonVel) != nion || len(s.IonForce) != nion {
		return fmt.Errorf("checkpoint: ion section inconsistent: %d positions, %d velocities, %d forces",
			nion, len(s.IonVel), len(s.IonForce))
	}
	if nion != 0 && int64(nion) != s.Natom {
		return fmt.Errorf("checkpoint: ion section holds %d atoms, system has %d", nion, s.Natom)
	}
	bw := bufio.NewWriter(w)
	crc := crc64.New(crcTab)
	mw := io.MultiWriter(bw, crc)
	hyb := int64(0)
	if s.Hybrid {
		hyb = 1
	}
	nref := uint64(0)
	if len(s.PhiRef) > 0 {
		nref = uint64(s.NBands)
	}
	// The ACE word dates from when MTS could also freeze exact exchange;
	// every MTS state now holds ACE, so it is 1 exactly when MTS is on.
	ace := uint64(0)
	if s.MTSPeriod > 0 {
		ace = 1
	}
	header := []uint64{
		magic, version,
		math.Float64bits(s.Time), uint64(s.Step),
		uint64(s.NBands), uint64(s.NG), uint64(s.Natom),
		math.Float64bits(s.Ecut), uint64(hyb),
		uint64(s.MTSPeriod), uint64(s.MTSPhase), ace, nref,
		uint64(nion), uint64(s.IonSteps),
	}
	var hdr bytes.Buffer
	for _, h := range header {
		binary.Write(&hdr, binary.LittleEndian, h)
	}
	if _, err := mw.Write(hdr.Bytes()); err != nil {
		return err
	}
	// The header carries its own checksum so a loader rejects a damaged
	// header before trusting any size word in it.
	if err := binary.Write(mw, binary.LittleEndian, crc64.Checksum(hdr.Bytes(), crcTab)); err != nil {
		return err
	}
	psiSec := crc64.New(crcTab)
	if err := writeComplex(io.MultiWriter(mw, psiSec), s.Psi); err != nil {
		return err
	}
	if err := binary.Write(mw, binary.LittleEndian, psiSec.Sum64()); err != nil {
		return err
	}
	if nref > 0 {
		refSec := crc64.New(crcTab)
		if err := writeComplex(io.MultiWriter(mw, refSec), s.PhiRef); err != nil {
			return err
		}
		if err := binary.Write(mw, binary.LittleEndian, refSec.Sum64()); err != nil {
			return err
		}
	}
	if nion > 0 {
		ionSec := crc64.New(crcTab)
		for _, block := range [][][3]float64{s.IonPos, s.IonVel, s.IonForce} {
			if err := writeVec3(io.MultiWriter(mw, ionSec), block); err != nil {
				return err
			}
		}
		if err := binary.Write(mw, binary.LittleEndian, ionSec.Sum64()); err != nil {
			return err
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, crc.Sum64()); err != nil {
		return err
	}
	return bw.Flush()
}

// writeComplex streams a complex slice as little-endian re/im float64
// pairs.
func writeComplex(w io.Writer, xs []complex128) error {
	buf := make([]byte, 16)
	for _, c := range xs {
		binary.LittleEndian.PutUint64(buf[0:], math.Float64bits(real(c)))
		binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(imag(c)))
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// writeVec3 streams per-atom 3-vectors as little-endian float64 triplets.
func writeVec3(w io.Writer, xs [][3]float64) error {
	buf := make([]byte, 24)
	for _, v := range xs {
		binary.LittleEndian.PutUint64(buf[0:], math.Float64bits(v[0]))
		binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(v[1]))
		binary.LittleEndian.PutUint64(buf[16:], math.Float64bits(v[2]))
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// countReader tracks the byte offset of the underlying stream so load
// errors can name where in the file the damage sits.
type countReader struct {
	r io.Reader
	n int64
}

func (c *countReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// readComplex fills a complex slice from little-endian re/im float64
// pairs; what reports which block a truncation hit, cnt the file offset.
func readComplex(r io.Reader, cnt *countReader, dst []complex128, what string) error {
	buf := make([]byte, 16)
	for i := range dst {
		if _, err := io.ReadFull(r, buf); err != nil {
			return fmt.Errorf("checkpoint: %s truncated at coefficient %d (byte offset %d): %w", what, i, cnt.n, err)
		}
		re := math.Float64frombits(binary.LittleEndian.Uint64(buf[0:]))
		im := math.Float64frombits(binary.LittleEndian.Uint64(buf[8:]))
		dst[i] = complex(re, im)
	}
	return nil
}

// readVec3 fills per-atom 3-vectors from little-endian float64 triplets.
func readVec3(r io.Reader, cnt *countReader, dst [][3]float64, what string) error {
	buf := make([]byte, 24)
	for i := range dst {
		if _, err := io.ReadFull(r, buf); err != nil {
			return fmt.Errorf("checkpoint: %s truncated at atom %d (byte offset %d): %w", what, i, cnt.n, err)
		}
		dst[i][0] = math.Float64frombits(binary.LittleEndian.Uint64(buf[0:]))
		dst[i][1] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8:]))
		dst[i][2] = math.Float64frombits(binary.LittleEndian.Uint64(buf[16:]))
	}
	return nil
}

// Load reads a state from r, verifying the checksums. Damage - truncation
// or flipped bits anywhere in the stream - is reported as a descriptive
// error naming the field and byte offset, never a panic or a silently
// corrupt state.
func Load(r io.Reader) (*State, error) {
	cnt := &countReader{r: bufio.NewReader(r)}
	crc := crc64.New(crcTab)
	tr := io.TeeReader(cnt, crc)
	// Magic and version are read first, so a foreign file is named as such
	// rather than as a truncated header.
	hdr := make([]byte, 8*15)
	word := func(i int) uint64 { return binary.LittleEndian.Uint64(hdr[8*i:]) }
	truncated := func(err error) error {
		return fmt.Errorf("checkpoint: header truncated at byte %d: %w", cnt.n, err)
	}
	if _, err := io.ReadFull(tr, hdr[:16]); err != nil {
		return nil, truncated(err)
	}
	if word(0) != magic {
		return nil, fmt.Errorf("checkpoint: bad magic %#x", word(0))
	}
	if word(1) != version {
		return nil, fmt.Errorf("checkpoint: unsupported version %d", word(1))
	}
	if _, err := io.ReadFull(tr, hdr[16:]); err != nil {
		return nil, truncated(err)
	}
	// The header checksum is verified before any size word below is
	// trusted for an allocation.
	var stored uint64
	if err := binary.Read(tr, binary.LittleEndian, &stored); err != nil {
		return nil, fmt.Errorf("checkpoint: header checksum truncated at byte %d: %w", cnt.n, err)
	}
	if crc64.Checksum(hdr, crcTab) != stored {
		return nil, fmt.Errorf("checkpoint: header corrupt (checksum mismatch over bytes 0..%d)", len(hdr)-1)
	}
	s := &State{
		Time:   math.Float64frombits(word(2)),
		Step:   int64(word(3)),
		NBands: int(word(4)),
		NG:     int(word(5)),
		Natom:  int64(word(6)),
		Ecut:   math.Float64frombits(word(7)),
		Hybrid: word(8) != 0,

		MTSPeriod: int64(word(9)),
		MTSPhase:  int64(word(10)),
		IonSteps:  int64(word(14)),
	}
	if s.MTSPhase > 0 && word(11) == 0 {
		return nil, fmt.Errorf("checkpoint: mid-cycle MTS state (phase %d of %d) froze exact exchange, a cadence that was removed; restart from a cycle-boundary checkpoint", s.MTSPhase, s.MTSPeriod)
	}
	nref, nion := word(12), word(13)
	// verifySection brackets one payload section with its own checksum
	// word, so damage is attributed to the section by name and byte range
	// instead of a file-level mismatch after the fact.
	verifySection := func(what string, read func(io.Reader) error) error {
		start := cnt.n
		sec := crc64.New(crcTab)
		if err := read(io.TeeReader(tr, sec)); err != nil {
			return err
		}
		end := cnt.n
		var stored uint64
		if err := binary.Read(tr, binary.LittleEndian, &stored); err != nil {
			return fmt.Errorf("checkpoint: %s checksum truncated at byte %d: %w", what, cnt.n, err)
		}
		if sec.Sum64() != stored {
			return fmt.Errorf("checkpoint: %s section corrupt (checksum mismatch over bytes %d..%d)", what, start, end-1)
		}
		return nil
	}
	n := s.NBands * s.NG
	if n < 0 || n > 1<<34 {
		return nil, fmt.Errorf("checkpoint: implausible size %d x %d", s.NBands, s.NG)
	}
	if nref != 0 && nref != uint64(s.NBands) {
		return nil, fmt.Errorf("checkpoint: frozen reference holds %d bands, want 0 or %d", nref, s.NBands)
	}
	if nion > 1<<24 {
		// Plausibility cap before any allocation sized by header words: a
		// corrupt file must fail with an error, not a makeslice panic.
		return nil, fmt.Errorf("checkpoint: implausible ion count %d", nion)
	}
	if nion != 0 && nion != uint64(s.Natom) {
		return nil, fmt.Errorf("checkpoint: ion section holds %d atoms, want 0 or %d", nion, s.Natom)
	}
	s.Psi = make([]complex128, n)
	if err := verifySection("psi", func(r io.Reader) error {
		return readComplex(r, cnt, s.Psi, "psi")
	}); err != nil {
		return nil, err
	}
	if nref > 0 {
		s.PhiRef = make([]complex128, n)
		if err := verifySection("frozen reference", func(r io.Reader) error {
			return readComplex(r, cnt, s.PhiRef, "frozen reference")
		}); err != nil {
			return nil, err
		}
	}
	if nion > 0 {
		s.IonPos = make([][3]float64, nion)
		s.IonVel = make([][3]float64, nion)
		s.IonForce = make([][3]float64, nion)
		if err := verifySection("ion", func(r io.Reader) error {
			for _, block := range []struct {
				dst  [][3]float64
				what string
			}{{s.IonPos, "ion positions"}, {s.IonVel, "ion velocities"}, {s.IonForce, "ion forces"}} {
				if err := readVec3(r, cnt, block.dst, block.what); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return nil, err
		}
	}
	want := crc.Sum64()
	var got uint64
	if err := binary.Read(cnt, binary.LittleEndian, &got); err != nil {
		return nil, fmt.Errorf("checkpoint: missing checksum (file truncated at byte %d): %w", cnt.n, err)
	}
	if got != want {
		return nil, fmt.Errorf("checkpoint: checksum mismatch (file %#x, computed %#x)", got, want)
	}
	return s, nil
}

// SaveFile writes the state to path atomically AND durably: the payload
// goes to a uniquely named temp file in the same directory (O_EXCL, so
// concurrent writers never clobber each other), is fsynced before the
// rename (so the rename can never install a file whose bytes are still in
// the page cache when power is lost), and the directory is fsynced after
// (so the new name itself survives a crash). The temp file is removed on
// every error path.
func SaveFile(path string, s *State) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := Save(f, s); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a just-renamed entry is durable.
// Filesystems that refuse directory fsync (some network mounts) degrade
// to rename-only atomicity rather than failing the save.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil
	}
	defer d.Close()
	d.Sync()
	return nil
}

// LoadFile reads a state from path.
func LoadFile(path string) (*State, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}

// Compatible reports whether a loaded state matches the current system
// discretization, functional and cadences, with every mismatch reported as
// an expected-vs-got pair. The hybrid flag matters as much as the grid:
// orbitals propagated under the screened-exchange Hamiltonian must not
// silently continue under a semi-local one (or vice versa) - the
// trajectories are not comparable. mts is the refresh period of the
// resuming run (0 for no MTS): a state saved mid-cycle pins it - the
// frozen operator it carries is only meaningful under the same M - while
// a state saved at a cycle boundary may change it freely. md reports
// whether the resuming run moves ions: an Ehrenfest state must not
// silently continue with frozen ions (its stored geometry would be
// ignored), nor a frozen-ion state under -md (there is no velocity/force
// state to integrate from).
func (s *State) Compatible(nbands, ng int, natom int64, ecut float64, hybrid bool, mts int, md bool) error {
	if s.NBands != nbands {
		return fmt.Errorf("checkpoint: band count: checkpoint has %d, run has %d", s.NBands, nbands)
	}
	if s.NG != ng {
		return fmt.Errorf("checkpoint: G-sphere size: checkpoint has %d, run has %d", s.NG, ng)
	}
	if s.Natom != natom {
		return fmt.Errorf("checkpoint: atom count: checkpoint has %d, run has %d", s.Natom, natom)
	}
	if s.Ecut != ecut {
		return fmt.Errorf("checkpoint: energy cutoff: checkpoint has %g Ha, run has %g Ha", s.Ecut, ecut)
	}
	if s.Hybrid != hybrid {
		return fmt.Errorf("checkpoint: functional: checkpoint has hybrid=%v, run has hybrid=%v (rerun with the matching -hybrid flag)",
			s.Hybrid, hybrid)
	}
	if s.MTSPhase != 0 {
		if int64(mts) != s.MTSPeriod {
			return fmt.Errorf("checkpoint: mts period: checkpoint has %d (saved mid-cycle at phase %d), run has %d (rerun with -mts %d, or restart from a cycle-boundary checkpoint)",
				s.MTSPeriod, s.MTSPhase, mts, s.MTSPeriod)
		}
		if s.Hybrid && len(s.PhiRef) == 0 {
			return fmt.Errorf("checkpoint: mid-cycle MTS state (phase %d of %d) is missing its frozen exchange reference", s.MTSPhase, s.MTSPeriod)
		}
	}
	if s.HasIons() != md {
		return fmt.Errorf("checkpoint: ion dynamics: checkpoint has md=%v, run has md=%v (rerun with the matching -md flag)",
			s.HasIons(), md)
	}
	return nil
}

// ContinuationStep returns the global step counter after advancing `steps`
// further steps from a loaded checkpoint; a nil loaded state means a fresh
// run starting at step 0. Segments of a split production run chain their
// provenance through this: each segment's saved Step is the cumulative
// count, not the segment length.
func ContinuationStep(loaded *State, steps int) int64 {
	if loaded == nil {
		return int64(steps)
	}
	return loaded.Step + int64(steps)
}

// ContinuationIonSteps is ContinuationStep for the ion-step counter of an
// Ehrenfest trajectory.
func ContinuationIonSteps(loaded *State, ionSteps int) int64 {
	if loaded == nil {
		return int64(ionSteps)
	}
	return loaded.IonSteps + int64(ionSteps)
}
