package kernel

import "sort"

// Info is a static descriptor of a compute-intensive loop kernel, used to
// regenerate Table I's categorization by loop dimensionality and the
// existence of inter-iteration dependencies.
type Info struct {
	Name     string
	Suite    string // "MachSuite", "MiBench", "PolyBench", "custom"
	Dim      int    // loop nest dimensionality
	InterDep bool   // has inter-iteration dependencies
}

// Catalog returns the loop kernels categorized in Table I of the paper.
// Entries mirror the paper's table; the eight Table-II kernels also have
// full specifications in this package (see Evaluation).
func Catalog() []Info {
	return []Info{
		// No inter-iteration dependency (Dim 1/2/3).
		{"aes_mix_col", "MachSuite", 1, false},
		{"add_row", "MachSuite", 1, false},
		{"bd_softmax", "MachSuite", 1, false},
		{"relu", "MachSuite", 1, false},
		{"add_bias", "MachSuite", 1, false},
		{"take_diff", "MachSuite", 2, false},
		{"get_delta_matrix_weight", "MachSuite", 2, false},
		{"knn_md", "MachSuite", 2, false},
		{"update_weights", "MachSuite", 2, false},
		{"viterbi_comp_prob", "MachSuite", 2, false},
		{"jpeg_fdct_islow", "MiBench", 1, false},
		{"huffman_encode", "PolyBench", 1, false},
		{"correlation", "PolyBench", 2, false},
		{"covariance", "PolyBench", 2, false},
		{"trisolv", "PolyBench", 1, false},
		{"fd2d_nodep", "PolyBench", 2, false},
		// Inter-iteration dependency, Dim = 1.
		{"aes_expand_key", "MachSuite", 1, true},
		{"spmv", "MachSuite", 1, true},
		{"viterbi", "MachSuite", 1, true},
		{"basicmath_usqrt", "MiBench", 1, true},
		{"susan", "MiBench", 1, true},
		{"stencil_jacobi1d", "PolyBench", 1, true},
		{"cholesky", "PolyBench", 1, true},
		{"symm", "PolyBench", 1, true},
		{"gesummv", "PolyBench", 1, true},
		{"durbin", "PolyBench", 1, true},
		{"dynprog", "PolyBench", 1, true},
		{"gramschmidt", "PolyBench", 1, true},
		{"reg_detect", "PolyBench", 1, true},
		// Inter-iteration dependency, Dim = 2.
		{"adi", "PolyBench", 2, true},
		{"atax", "PolyBench", 2, true},
		{"bicg", "PolyBench", 2, true},
		{"mvt", "PolyBench", 2, true},
		{"fd2d", "PolyBench", 2, true},
		{"gemmver", "PolyBench", 2, true},
		{"jacobi_2d", "PolyBench", 2, true},
		{"nw", "MachSuite", 2, true},
		{"stencil_2d", "MachSuite", 2, true},
		{"conv2d", "custom", 2, true},
		// Inter-iteration dependency, Dim = 3.
		{"gemm", "PolyBench", 3, true},
		{"syrk", "PolyBench", 3, true},
		{"mm", "PolyBench", 3, true},
		{"floyd_warshall", "PolyBench", 3, true},
		{"fft", "MachSuite", 3, true},
		{"conv3d", "custom", 3, true},
		// Inter-iteration dependency, Dim = 4.
		{"ttm", "PolyBench", 4, true},
		{"doitgen", "PolyBench", 4, true},
	}
}

// Category identifies a Table-I column.
type Category struct {
	InterDep bool
	Dim      int // 0 means "any" (the no-dependency column)
}

// Categorize groups catalog entries into Table I's five columns:
// no-dependency (any dim), then with-dependency for Dim 1..4.
// The returned map keys are stable label strings.
func Categorize(infos []Info) map[string][]Info {
	out := map[string][]Info{}
	for _, in := range infos {
		var key string
		switch {
		case !in.InterDep:
			key = "no-dep"
		case in.Dim == 1:
			key = "dep-dim1"
		case in.Dim == 2:
			key = "dep-dim2"
		case in.Dim == 3:
			key = "dep-dim3"
		default:
			key = "dep-dim4"
		}
		out[key] = append(out[key], in)
	}
	for _, v := range out {
		sort.Slice(v, func(i, j int) bool { return v[i].Name < v[j].Name })
	}
	return out
}
