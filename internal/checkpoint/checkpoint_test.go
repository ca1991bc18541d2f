package checkpoint

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func sampleState(rng *rand.Rand) *State {
	nb, ng := 4, 37
	psi := make([]complex128, nb*ng)
	for i := range psi {
		psi[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return &State{
		Time: 12.625, Step: 42, NBands: nb, NG: ng,
		Natom: 8, Ecut: 4, Hybrid: true, Psi: psi,
	}
}

func TestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := sampleState(rng)
	var buf bytes.Buffer
	if err := Save(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Time != s.Time || got.Step != s.Step || got.NBands != s.NBands ||
		got.NG != s.NG || got.Natom != s.Natom || got.Ecut != s.Ecut || got.Hybrid != s.Hybrid {
		t.Errorf("metadata mismatch: %+v vs %+v", got, s)
	}
	for i := range s.Psi {
		if got.Psi[i] != s.Psi[i] {
			t.Fatalf("psi differs at %d", i)
		}
	}
}

// TestRoundTripMTS: the version-2 MTS section - period, phase, and the
// frozen exchange reference of a mid-cycle save - survives a round trip
// bit for bit.
func TestRoundTripMTS(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := sampleState(rng)
	s.MTSPeriod, s.MTSPhase = 4, 3
	s.PhiRef = make([]complex128, len(s.Psi))
	for i := range s.PhiRef {
		s.PhiRef[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	var buf bytes.Buffer
	if err := Save(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.MTSPeriod != 4 || got.MTSPhase != 3 {
		t.Errorf("MTS cadence lost: period %d phase %d", got.MTSPeriod, got.MTSPhase)
	}
	for i := range s.PhiRef {
		if got.PhiRef[i] != s.PhiRef[i] {
			t.Fatalf("frozen reference differs at %d", i)
		}
	}
	// A reference block of the wrong shape must be rejected at save time.
	s.PhiRef = s.PhiRef[:len(s.PhiRef)-1]
	if err := Save(&bytes.Buffer{}, s); err == nil {
		t.Error("misshapen frozen reference accepted")
	}
}

// TestRoundTripIon: the ion section - positions, velocities,
// force cache and the ion-step counter - survives a round trip bit for
// bit, and inconsistent sections are rejected at save time.
func TestRoundTripIon(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	s := sampleState(rng)
	s.IonSteps = 17
	n := int(s.Natom)
	s.IonPos = make([][3]float64, n)
	s.IonVel = make([][3]float64, n)
	s.IonForce = make([][3]float64, n)
	for i := 0; i < n; i++ {
		for d := 0; d < 3; d++ {
			s.IonPos[i][d] = rng.NormFloat64()
			s.IonVel[i][d] = rng.NormFloat64() * 1e-4
			s.IonForce[i][d] = rng.NormFloat64() * 1e-2
		}
	}
	var buf bytes.Buffer
	if err := Save(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.HasIons() || got.IonSteps != 17 {
		t.Fatalf("ion section lost: HasIons=%v IonSteps=%d", got.HasIons(), got.IonSteps)
	}
	for i := 0; i < n; i++ {
		if got.IonPos[i] != s.IonPos[i] || got.IonVel[i] != s.IonVel[i] || got.IonForce[i] != s.IonForce[i] {
			t.Fatalf("ion state differs at atom %d", i)
		}
	}
	// Section shape mismatches must be rejected at save time.
	bad := *s
	bad.IonVel = bad.IonVel[:n-1]
	if err := Save(&bytes.Buffer{}, &bad); err == nil {
		t.Error("misshapen ion velocity block accepted")
	}
	bad = *s
	bad.IonPos = bad.IonPos[:n-1]
	bad.IonVel = bad.IonVel[:n-1]
	bad.IonForce = bad.IonForce[:n-1]
	if err := Save(&bytes.Buffer{}, &bad); err == nil {
		t.Error("ion section with wrong atom count accepted")
	}
}

// TestLoadRejectsImplausibleIonCount: a header whose ion-count word is
// garbage (under a valid header checksum, so only the plausibility cap
// stands in the way) must fail with an error before any header-sized
// allocation happens (no makeslice panic, no OOM).
func TestLoadRejectsImplausibleIonCount(t *testing.T) {
	var raw bytes.Buffer
	header := []uint64{
		magic, version,
		math.Float64bits(1.0), 1,
		1, 1, 1 << 60, // Natom garbage
		math.Float64bits(3.0), 0,
		0, 0, 0, 0,
		1 << 60, 0, // nion garbage matching Natom
	}
	for _, h := range header {
		if err := binary.Write(&raw, binary.LittleEndian, h); err != nil {
			t.Fatal(err)
		}
	}
	if err := binary.Write(&raw, binary.LittleEndian, crc64.Checksum(raw.Bytes(), crcTab)); err != nil {
		t.Fatal(err)
	}
	_, err := Load(&raw)
	if err == nil {
		t.Fatal("implausible ion count accepted")
	}
	if !strings.Contains(err.Error(), "ion count") {
		t.Errorf("error does not name the ion count: %v", err)
	}
}

func TestFileRoundTripAtomic(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s := sampleState(rng)
	path := filepath.Join(t.TempDir(), "state.ckp")
	if err := SaveFile(path, s); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Error("temp file left behind")
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Step != 42 {
		t.Error("file round trip lost data")
	}
}

func TestChecksumDetectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := sampleState(rng)
	var buf bytes.Buffer
	if err := Save(&buf, s); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[len(data)/2] ^= 0xFF
	if _, err := Load(bytes.NewReader(data)); err == nil {
		t.Error("corruption not detected")
	} else if !strings.Contains(err.Error(), "checksum") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestTruncationDetected(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	s := sampleState(rng)
	var buf bytes.Buffer
	if err := Save(&buf, s); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()[:buf.Len()-20]
	if _, err := Load(bytes.NewReader(data)); err == nil {
		t.Error("truncation not detected")
	}
}

// TestBadMagicAndVersion: a foreign stream is rejected by its magic, and
// so is every format version but the one Save writes - the retired
// versions 1-3 included.
func TestBadMagicAndVersion(t *testing.T) {
	if _, err := Load(bytes.NewReader(make([]byte, 100))); err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Errorf("bad magic not detected: %v", err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, sampleState(rand.New(rand.NewSource(9)))); err != nil {
		t.Fatal(err)
	}
	for _, ver := range []uint64{0, 1, 2, 3, version + 1} {
		data := append([]byte(nil), buf.Bytes()...)
		binary.LittleEndian.PutUint64(data[8:], ver)
		want := fmt.Sprintf("unsupported version %d", ver)
		if _, err := Load(bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("version %d: error %v, want %q", ver, err, want)
		}
	}
}

func TestSaveRejectsInconsistentState(t *testing.T) {
	s := &State{NBands: 2, NG: 10, Psi: make([]complex128, 5)}
	if err := Save(&bytes.Buffer{}, s); err == nil {
		t.Error("inconsistent psi length not rejected")
	}
}

func TestCompatible(t *testing.T) {
	s := &State{NBands: 16, NG: 257, Natom: 8, Ecut: 3, Hybrid: true}
	if err := s.Compatible(16, 257, 8, 3, true, 0, false); err != nil {
		t.Errorf("unexpected incompatibility: %v", err)
	}
	if err := s.Compatible(16, 257, 8, 4, true, 0, false); err == nil {
		t.Error("Ecut mismatch not detected")
	}
	if err := s.Compatible(32, 257, 8, 3, true, 0, false); err == nil {
		t.Error("band mismatch not detected")
	}
	// A hybrid checkpoint must not resume under a semi-local Hamiltonian
	// (or vice versa) - the propagated trajectories are not interchangeable.
	if err := s.Compatible(16, 257, 8, 3, false, 0, false); err == nil {
		t.Error("hybrid mismatch not detected")
	} else if !strings.Contains(err.Error(), "hybrid") {
		t.Errorf("hybrid mismatch error not descriptive: %v", err)
	}
	sl := &State{NBands: 16, NG: 257, Natom: 8, Ecut: 3, Hybrid: false}
	if err := sl.Compatible(16, 257, 8, 3, true, 0, false); err == nil {
		t.Error("semi-local state resumed under hybrid not detected")
	}
}

// TestCompatibleMessagesReportExpectedVsGot pins the error-message
// contract: every mismatch names the field and reports the checkpoint's
// value against the run's, so the operator knows which flag to fix without
// reading code.
func TestCompatibleMessagesReportExpectedVsGot(t *testing.T) {
	s := &State{NBands: 16, NG: 257, Natom: 8, Ecut: 3, Hybrid: true}
	cases := []struct {
		name string
		err  error
		want []string
	}{
		{"bands", s.Compatible(32, 257, 8, 3, true, 0, false),
			[]string{"band count", "checkpoint has 16", "run has 32"}},
		{"ng", s.Compatible(16, 300, 8, 3, true, 0, false),
			[]string{"G-sphere size", "checkpoint has 257", "run has 300"}},
		{"natom", s.Compatible(16, 257, 64, 3, true, 0, false),
			[]string{"atom count", "checkpoint has 8", "run has 64"}},
		{"ecut", s.Compatible(16, 257, 8, 10, true, 0, false),
			[]string{"energy cutoff", "checkpoint has 3 Ha", "run has 10 Ha"}},
		{"hybrid", s.Compatible(16, 257, 8, 3, false, 0, false),
			[]string{"functional", "checkpoint has hybrid=true", "run has hybrid=false"}},
		{"md", s.Compatible(16, 257, 8, 3, true, 0, true),
			[]string{"ion dynamics", "checkpoint has md=false", "run has md=true"}},
	}
	mid := &State{NBands: 16, NG: 257, Natom: 8, Ecut: 3, Hybrid: true,
		MTSPeriod: 4, MTSPhase: 2, PhiRef: make([]complex128, 16*257)}
	cases = append(cases,
		struct {
			name string
			err  error
			want []string
		}{"mts", mid.Compatible(16, 257, 8, 3, true, 2, false),
			[]string{"mts period", "checkpoint has 4", "run has 2"}},
	)
	for _, tc := range cases {
		if tc.err == nil {
			t.Errorf("%s: mismatch not detected", tc.name)
			continue
		}
		for _, w := range tc.want {
			if !strings.Contains(tc.err.Error(), w) {
				t.Errorf("%s: error %q does not report %q", tc.name, tc.err, w)
			}
		}
	}
}

// TestCompatibleMTS pins the cadence rules of a resume: a mid-cycle state
// is bound to its refresh period and must carry the frozen reference; a
// cycle-boundary state may change cadence freely.
func TestCompatibleMTS(t *testing.T) {
	n := 16 * 257
	mid := &State{NBands: 16, NG: 257, Natom: 8, Ecut: 3, Hybrid: true,
		MTSPeriod: 4, MTSPhase: 2, PhiRef: make([]complex128, n)}
	if err := mid.Compatible(16, 257, 8, 3, true, 4, false); err != nil {
		t.Errorf("matching mid-cycle resume rejected: %v", err)
	}
	if err := mid.Compatible(16, 257, 8, 3, true, 0, false); err == nil {
		t.Error("mid-cycle state resumed without -mts not detected")
	} else if !strings.Contains(err.Error(), "-mts") {
		t.Errorf("cadence mismatch error not descriptive: %v", err)
	}
	if err := mid.Compatible(16, 257, 8, 3, true, 2, false); err == nil {
		t.Error("mid-cycle period change not detected")
	}
	mid.PhiRef = nil
	if err := mid.Compatible(16, 257, 8, 3, true, 4, false); err == nil {
		t.Error("mid-cycle state without frozen reference not detected")
	}
	// At a cycle boundary the period may change: the next step is an outer
	// step under any setting.
	boundary := &State{NBands: 16, NG: 257, Natom: 8, Ecut: 3, Hybrid: true, MTSPeriod: 4}
	for _, mts := range []int{0, 1, 2, 4, 8} {
		if err := boundary.Compatible(16, 257, 8, 3, true, mts, false); err != nil {
			t.Errorf("cycle-boundary resume under -mts %d rejected: %v", mts, err)
		}
	}
}
