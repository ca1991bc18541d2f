package checkpoint

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fullState returns a state exercising every section: MTS frozen
// reference and the ion block.
func fullState(rng *rand.Rand) *State {
	s := sampleState(rng)
	s.MTSPeriod, s.MTSPhase = 4, 3
	s.PhiRef = make([]complex128, len(s.Psi))
	for i := range s.PhiRef {
		s.PhiRef[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	s.IonSteps = 5
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
	return s
}

// savedStream serializes fullState.
func savedStream(t *testing.T, rng *rand.Rand) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Save(&buf, fullState(rng)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// loadNoPanic loads data, turning a panic into a test failure.
func loadNoPanic(t *testing.T, data []byte, what string) (*State, error) {
	t.Helper()
	defer func() {
		if p := recover(); p != nil {
			t.Fatalf("%s panicked: %v", what, p)
		}
	}()
	return Load(bytes.NewReader(data))
}

// TestCorruptionFuzzAllVersions flips bytes across every region of a
// saved stream - the size-bearing header words included, which the header
// checksum guards before any allocation - and checks Load always returns a
// descriptive error: never a panic, never a silently corrupt state.
func TestCorruptionFuzzAllVersions(t *testing.T) {
	clean := savedStream(t, rand.New(rand.NewSource(11)))
	if _, err := Load(bytes.NewReader(clean)); err != nil {
		t.Fatalf("clean stream rejected: %v", err)
	}
	offsets := []int{0, 8, len(clean) - 1, len(clean) - 8}
	for off := 0; off < len(clean); off += 61 {
		offsets = append(offsets, off)
	}
	for off := 16; off < 16*8; off += 8 {
		offsets = append(offsets, off) // every header word and the header checksum
	}
	for _, off := range offsets {
		data := append([]byte(nil), clean...)
		data[off] ^= 0x40
		if got, err := loadNoPanic(t, data, fmt.Sprintf("flip at byte %d", off)); err == nil {
			t.Errorf("flip at byte %d loaded silently (state step %d)", off, got.Step)
		}
	}
}

// TestTruncationFuzzAllVersions cuts a saved stream at many lengths and
// checks Load errors out descriptively each time.
func TestTruncationFuzzAllVersions(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	clean := savedStream(t, rng)
	cuts := []int{0, 1, 7, 8, 9, 15, 16, 17, 71, 72, 73, 119, 120, 121, 127, 128, 129, len(clean) / 3, len(clean) / 2, len(clean) - 9, len(clean) - 1}
	for i := 0; i < 20; i++ {
		cuts = append(cuts, rng.Intn(len(clean)))
	}
	for _, cut := range cuts {
		if got, err := loadNoPanic(t, clean[:cut], fmt.Sprintf("truncation at %d", cut)); err == nil {
			t.Errorf("truncation at byte %d of %d loaded silently (step %d)", cut, len(clean), got.Step)
		}
	}
}

// TestV4ErrorsNameTheDamagedField pins the diagnosis quality of the v4
// per-section checksums: a flip lands an error naming the section it hit
// and a truncation an error with the byte offset.
func TestV4ErrorsNameTheDamagedField(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	s := fullState(rng)
	var buf bytes.Buffer
	if err := Save(&buf, s); err != nil {
		t.Fatal(err)
	}
	clean := buf.Bytes()
	const headerEnd = 15*8 + 8 // 15 words + header checksum
	psiBytes := 16 * len(s.Psi)
	psiEnd := headerEnd + psiBytes + 8
	refEnd := psiEnd + 16*len(s.PhiRef) + 8
	ionEnd := refEnd + 3*24*len(s.IonPos) + 8
	if ionEnd+8 != len(clean) {
		t.Fatalf("layout arithmetic off: computed %d, stream %d", ionEnd+8, len(clean))
	}
	cases := []struct {
		name string
		off  int
		want string
	}{
		{"header word", 40, "header corrupt"},
		{"header checksum", headerEnd - 4, "header corrupt"},
		{"psi payload", headerEnd + psiBytes/2, "psi section corrupt"},
		{"frozen reference payload", psiEnd + 24, "frozen reference section corrupt"},
		{"ion payload", refEnd + 24, "ion section corrupt"},
	}
	for _, tc := range cases {
		data := append([]byte(nil), clean...)
		data[tc.off] ^= 0x01
		_, err := Load(bytes.NewReader(data))
		if err == nil {
			t.Errorf("%s: flip at %d not detected", tc.name, tc.off)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not contain %q", tc.name, err, tc.want)
		}
	}
	_, err := Load(bytes.NewReader(clean[:headerEnd+100]))
	if err == nil || !strings.Contains(err.Error(), "byte offset") {
		t.Errorf("payload truncation error lacks byte offset: %v", err)
	}
}

// TestLoadRejectsFrozenExactMidCycle: a v4 header whose ACE word is 0
// marks an MTS cycle that froze exact exchange, a cadence that was
// removed. Such a state saved mid-cycle fails to load, naming the removed
// cadence; at a cycle boundary it carries no frozen operator and loads.
func TestLoadRejectsFrozenExactMidCycle(t *testing.T) {
	// exactWord saves s, zeroes the ACE header word and restores both
	// checksums it covers, as a save by the removed cadence wrote them.
	exactWord := func(s *State) []byte {
		var buf bytes.Buffer
		if err := Save(&buf, s); err != nil {
			t.Fatal(err)
		}
		data := buf.Bytes()
		const hdrLen = 15 * 8
		binary.LittleEndian.PutUint64(data[11*8:], 0)
		binary.LittleEndian.PutUint64(data[hdrLen:], crc64.Checksum(data[:hdrLen], crcTab))
		end := len(data) - 8
		binary.LittleEndian.PutUint64(data[end:], crc64.Checksum(data[:end], crcTab))
		return data
	}
	s := fullState(rand.New(rand.NewSource(15)))
	if _, err := Load(bytes.NewReader(exactWord(s))); err == nil || !strings.Contains(err.Error(), "froze exact exchange, a cadence that was removed") {
		t.Errorf("mid-cycle frozen-exact state: error %v does not name the removed cadence", err)
	}
	s.MTSPhase, s.PhiRef = 0, nil
	got, err := Load(bytes.NewReader(exactWord(s)))
	if err != nil {
		t.Fatalf("cycle-boundary state with a zero ACE word rejected: %v", err)
	}
	if got.MTSPeriod != 4 || got.MTSPhase != 0 {
		t.Errorf("cycle-boundary state loaded as period %d phase %d, want 4 and 0", got.MTSPeriod, got.MTSPhase)
	}
}

// TestSaveFileCleansUpOnError checks the unique temp file never survives
// a failed save.
func TestSaveFileCleansUpOnError(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.ckp")
	bad := &State{NBands: 2, NG: 10, Psi: make([]complex128, 5)} // inconsistent: Save fails
	if err := SaveFile(path, bad); err == nil {
		t.Fatal("inconsistent state saved")
	}
	leftovers, _ := filepath.Glob(filepath.Join(dir, "*.tmp-*"))
	if len(leftovers) != 0 {
		t.Errorf("temp files left after failed save: %v", leftovers)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("failed save created the destination")
	}
}

// TestSaveFileUniqueTempNames checks two interleaved writers to the same
// path cannot share (and thus clobber) a temp file: the temp names are
// unique per call.
func TestSaveFileUniqueTempNames(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	dir := t.TempDir()
	path := filepath.Join(dir, "state.ckp")
	s := sampleState(rng)
	for i := 0; i < 4; i++ {
		if err := SaveFile(path, s); err != nil {
			t.Fatal(err)
		}
	}
	leftovers, _ := filepath.Glob(filepath.Join(dir, "*.tmp-*"))
	if len(leftovers) != 0 {
		t.Errorf("temp files left after successful saves: %v", leftovers)
	}
	if _, err := LoadFile(path); err != nil {
		t.Fatal(err)
	}
}
