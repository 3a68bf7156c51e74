package kernel

import (
	"testing"

	"himap/internal/ir"
)

func TestExtensionsValidateAndMatchReference(t *testing.T) {
	for _, k := range Extensions() {
		if err := k.Validate(); err != nil {
			t.Errorf("%s: %v", k.Name, err)
			continue
		}
		var blocks [][]int
		switch k.Name {
		case "CONV2D":
			blocks = [][]int{{3, 3, 3, 3}, {4, 4, 3, 3}}
		default:
			blocks = [][]int{k.UniformBlock(2), k.UniformBlock(3), k.UniformBlock(4)}
		}
		for _, block := range blocks {
			inputs := k.DefaultInputs(block, 17)
			want, err := Reference(k.Name, block, inputs)
			if err != nil {
				t.Fatalf("%s %v: reference: %v", k.Name, block, err)
			}
			got, err := k.Golden(block, inputs)
			if err != nil {
				t.Fatalf("%s %v: golden: %v", k.Name, block, err)
			}
			if err := CompareOutputs(want, got); err != nil {
				t.Errorf("%s %v: %v", k.Name, block, err)
			}
			d, err := k.BuildDFG(block)
			if err != nil {
				t.Fatalf("%s %v: BuildDFG: %v", k.Name, block, err)
			}
			dfgOut, err := ExecuteDFG(k, d, inputs)
			if err != nil {
				t.Fatalf("%s %v: ExecuteDFG: %v", k.Name, block, err)
			}
			if err := CompareOutputs(want, dfgOut); err != nil {
				t.Errorf("%s %v: DFG execution: %v", k.Name, block, err)
			}
		}
	}
}

func TestNWHasDiagonalDependence(t *testing.T) {
	k := NW()
	dists := k.DistanceVectors()
	found := map[string]bool{}
	for _, d := range dists {
		found[d.Key()] = true
	}
	for _, want := range []string{"1,1", "1,0", "0,1"} {
		if !found[want] {
			t.Errorf("NW missing dependence %s (have %v)", want, dists)
		}
	}
	if k.NumComputeOps() != 5 {
		t.Errorf("NW compute ops = %d, want 5 (3 adds + 2 max)", k.NumComputeOps())
	}
}

func TestNWMatchesPlainDP(t *testing.T) {
	// Cross-check the halo-fed block semantics against a plain DP over an
	// extended matrix: run a block whose halo encodes "all gaps" init.
	k := NW()
	block := []int{4, 4}
	inputs := k.DefaultInputs(block, 3)
	// Overwrite halos with the classic init d(i,-1) = gap*(i+1) etc.
	const gap = -2
	for j := 0; j <= 4; j++ {
		inputs["HN"].Set(ir.IterVec{j}, int64(gap*j)) // HN[j] = d(-1, j-1) = gap*j
	}
	for i := 0; i <= 4; i++ {
		inputs["HW"].Set(ir.IterVec{i}, int64(gap*i))
	}
	got, err := k.Golden(block, inputs)
	if err != nil {
		t.Fatal(err)
	}
	// Plain DP.
	d := make([][]int64, 5)
	for i := range d {
		d[i] = make([]int64, 5)
		d[i][0] = int64(gap * i)
	}
	for j := 0; j < 5; j++ {
		d[0][j] = int64(gap * j)
	}
	for i := 1; i < 5; i++ {
		for j := 1; j < 5; j++ {
			best := d[i-1][j-1] + inputs["S"].At(ir.IterVec{i - 1, j - 1})
			if v := d[i-1][j] + gap; v > best {
				best = v
			}
			if v := d[i][j-1] + gap; v > best {
				best = v
			}
			d[i][j] = best
		}
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if got["OUT"].At(ir.IterVec{i, j}) != d[i+1][j+1] {
				t.Fatalf("NW(%d,%d) = %d, plain DP %d", i, j, got["OUT"].At(ir.IterVec{i, j}), d[i+1][j+1])
			}
		}
	}
}

func TestDOITGENStructureMatchesTTMShape(t *testing.T) {
	k := DOITGEN()
	if k.Dim != 4 || k.NumComputeOps() != 2 {
		t.Errorf("DOITGEN dim %d computes %d", k.Dim, k.NumComputeOps())
	}
}

func TestByNameIncludesExtensions(t *testing.T) {
	for _, name := range []string{"NW", "DOITGEN", "CONV2D"} {
		k, err := ByName(name)
		if err != nil || k.Name != name {
			t.Errorf("ByName(%s) = %v, %v", name, k, err)
		}
	}
}

func TestConv3DGoldenAndDFG(t *testing.T) {
	k := Conv3D()
	if err := k.Validate(); err != nil {
		t.Fatal(err)
	}
	block := []int{2, 3, 2, 3, 3, 3}
	inputs := k.DefaultInputs(block, 5)
	want, err := Reference(k.Name, block, inputs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := k.Golden(block, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if err := CompareOutputs(want, got); err != nil {
		t.Error(err)
	}
	d, err := k.BuildDFG(block)
	if err != nil {
		t.Fatal(err)
	}
	dout, err := ExecuteDFG(k, d, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if err := CompareOutputs(want, dout); err != nil {
		t.Error(err)
	}
}
