package wavefunc

import (
	"math"
	"testing"

	"ptdft/internal/grid"
	"ptdft/internal/lattice"
)

func TestRandomIsOrthonormal(t *testing.T) {
	g := grid.MustNew(lattice.MustSiliconSupercell(1, 1, 1), 4)
	psi := Random(g, 6, 1)
	if e := OrthonormalityError(psi, 6, g.NG); e > 1e-10 {
		t.Errorf("orthonormality error %g", e)
	}
}

func TestRandomDeterministic(t *testing.T) {
	g := grid.MustNew(lattice.MustSiliconSupercell(1, 1, 1), 3)
	a := Random(g, 3, 7)
	b := Random(g, 3, 7)
	if MaxDiff(a, b) != 0 {
		t.Error("same seed gave different bands")
	}
	c := Random(g, 3, 8)
	if MaxDiff(a, c) == 0 {
		t.Error("different seeds gave identical bands")
	}
}

func TestOrthonormalizeIdempotent(t *testing.T) {
	g := grid.MustNew(lattice.MustSiliconSupercell(1, 1, 1), 3)
	psi := Random(g, 4, 2)
	before := Clone(psi)
	oerr, err := Orthonormalize(psi, make([]complex128, 16), 4, g.NG)
	if err != nil {
		t.Fatal(err)
	}
	if want := OrthonormalityError(before, 4, g.NG); oerr != want {
		t.Errorf("Orthonormalize reported error %g, OrthonormalityError %g", oerr, want)
	}
	// Already orthonormal: must be (nearly) unchanged.
	if d := MaxDiff(before, psi); d > 1e-10 {
		t.Errorf("orthonormalize changed orthonormal set by %g", d)
	}
}

func TestSubspaceFidelityIdentity(t *testing.T) {
	g := grid.MustNew(lattice.MustSiliconSupercell(1, 1, 1), 3)
	psi := Random(g, 4, 3)
	if f := SubspaceFidelity(psi, psi, 4, g.NG); math.Abs(f-1) > 1e-10 {
		t.Errorf("self fidelity %g, want 1", f)
	}
	// Gauge rotation within the span keeps fidelity 1: swap two bands.
	rot := Clone(psi)
	copy(rot[:g.NG], psi[g.NG:2*g.NG])
	copy(rot[g.NG:2*g.NG], psi[:g.NG])
	if f := SubspaceFidelity(psi, rot, 4, g.NG); math.Abs(f-1) > 1e-10 {
		t.Errorf("rotated fidelity %g, want 1", f)
	}
	// Random other set: fidelity well below 1.
	other := Random(g, 4, 99)
	if f := SubspaceFidelity(psi, other, 4, g.NG); f > 0.9 {
		t.Errorf("random fidelity %g, want << 1", f)
	}
}

func TestCloneIndependent(t *testing.T) {
	g := grid.MustNew(lattice.MustSiliconSupercell(1, 1, 1), 3)
	a := Random(g, 2, 4)
	b := Clone(a)
	b[0] += 1
	if a[0] == b[0] {
		t.Error("Clone aliases the original")
	}
}

func TestMaxDiff(t *testing.T) {
	a := []complex128{1, 2, complex(3, 4)}
	b := []complex128{1, 2, complex(3, 0)}
	if d := MaxDiff(a, b); math.Abs(d-4) > 1e-15 {
		t.Errorf("MaxDiff = %g, want 4", d)
	}
}
