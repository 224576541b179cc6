package experiments

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// The modeled columns of the tables that print host times (fig6a/b, fig7a/b,
// infeasible and batch), which no table golden covers. Every float is printed
// with the shortest representation that round-trips, so a match pins its bits.
const modeledPinned = `latency algorithm-1 m=4 var=0 crossbar=29062ns energy=0.00033903195 iters=21.5
latency algorithm-1 m=4 var=0.05 crossbar=28155ns energy=0.0003280065 iters=18
latency algorithm-1 m=4 var=0.2 crossbar=29775ns energy=0.00034745330000000006 iters=22.5
latency algorithm-1 m=16 var=0 crossbar=177877ns energy=0.0020651068500000002 iters=29.5
latency algorithm-1 m=16 var=0.05 crossbar=169310ns energy=0.0019638010000000003 iters=23
latency algorithm-1 m=16 var=0.2 crossbar=197555ns energy=0.0022922097 iters=29
latency algorithm-2 m=4 var=0 crossbar=115690ns energy=0.001354247 iters=72
latency algorithm-2 m=4 var=0.05 crossbar=112620ns energy=0.0013185340000000001 iters=71
latency algorithm-2 m=4 var=0.2 crossbar=119510ns energy=0.001399377 iters=76
latency algorithm-2 m=16 var=0 crossbar=317632ns energy=0.00370311735 iters=85
latency algorithm-2 m=16 var=0.05 crossbar=423902ns energy=0.00493597075 iters=61
latency algorithm-2 m=16 var=0.2 crossbar=427935ns energy=0.0049835625 iters=64
latency algorithm-1-mixed m=4 var=0 crossbar=21248ns energy=0.00024629816 iters=12
latency algorithm-1-mixed m=4 var=0.05 crossbar=21718ns energy=0.00025172716 iters=12
latency algorithm-1-mixed m=4 var=0.2 crossbar=23322ns energy=0.00027045029 iters=14.5
latency algorithm-1-mixed m=16 var=0 crossbar=141210ns energy=0.0016335917600000002 iters=15.5
latency algorithm-1-mixed m=16 var=0.05 crossbar=142033ns energy=0.0016430925100000002 iters=15.5
latency algorithm-1-mixed m=16 var=0.2 crossbar=153001ns energy=0.0017704722800000001 iters=19.5
infeasible algorithm-1 m=4 var=0 crossbar=39540ns iters=32 detected=1
infeasible algorithm-1 m=4 var=0.05 crossbar=38960ns iters=33 detected=1
infeasible algorithm-1 m=4 var=0.2 crossbar=37457ns iters=28.5 detected=1
infeasible algorithm-1 m=16 var=0 crossbar=192675ns iters=28.5 detected=1
infeasible algorithm-1 m=16 var=0.05 crossbar=260420ns iters=45 detected=1
infeasible algorithm-1 m=16 var=0.2 crossbar=268317ns iters=40.5 detected=1
infeasible algorithm-2 m=4 var=0 crossbar=73985ns iters=49 detected=1
infeasible algorithm-2 m=4 var=0.05 crossbar=80332ns iters=57 detected=1
infeasible algorithm-2 m=4 var=0.2 crossbar=79282ns iters=57.5 detected=1
infeasible algorithm-2 m=16 var=0 crossbar=264140ns iters=59.5 detected=1
infeasible algorithm-2 m=16 var=0.05 crossbar=249115ns iters=60.5 detected=1
infeasible algorithm-2 m=16 var=0.2 crossbar=283527ns iters=59.5 detected=1
infeasible algorithm-1-mixed m=4 var=0 crossbar=37925ns iters=46.5 detected=1
infeasible algorithm-1-mixed m=4 var=0.05 crossbar=37610ns iters=44 detected=1
infeasible algorithm-1-mixed m=4 var=0.2 crossbar=36833ns iters=41.5 detected=1
infeasible algorithm-1-mixed m=16 var=0 crossbar=202536ns iters=73.5 detected=1
infeasible algorithm-1-mixed m=16 var=0.05 crossbar=282573ns iters=56.5 detected=1
infeasible algorithm-1-mixed m=16 var=0.2 crossbar=373377ns iters=60.5 detected=1
batch m=4 var=0 width=1 optimal=1
batch m=4 var=0 width=2 optimal=1
batch m=16 var=0 width=1 optimal=1
batch m=16 var=0 width=2 optimal=1
batch m=4 var=0.05 width=1 optimal=1
batch m=4 var=0.05 width=2 optimal=1
batch m=16 var=0.05 width=1 optimal=1
batch m=16 var=0.05 width=2 optimal=1
batch m=4 var=0.2 width=1 optimal=1
batch m=4 var=0.2 width=2 optimal=1
batch m=16 var=0.2 width=1 optimal=1
batch m=16 var=0.2 width=2 optimal=1
`

// TestModeledColumnsPinned holds the modeled hardware latency, energy,
// iteration counts, detection rates and batch optimal rates of the
// host-timed tables bit for bit, on a small sweep.
func TestModeledColumnsPinned(t *testing.T) {
	cfg := Config{Sizes: []int{4, 16}, Variations: []float64{0, 0.05, 0.2}, Trials: 2}
	var b strings.Builder
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, alg := range []Algorithm{Algorithm1, Algorithm2, Algorithm1Mixed} {
		rows, err := LatencyEnergy(alg, cfg, false)
		if err != nil {
			t.Fatalf("LatencyEnergy(%v): %v", alg, err)
		}
		for _, r := range rows {
			fmt.Fprintf(&b, "latency %v m=%d var=%s crossbar=%dns energy=%s iters=%s\n",
				alg, r.M, g(r.Variation), int64(r.Crossbar), g(r.CrossbarEnergy), g(r.Iterations))
		}
	}
	for _, alg := range []Algorithm{Algorithm1, Algorithm2, Algorithm1Mixed} {
		rows, err := InfeasibleDetection(alg, cfg)
		if err != nil {
			t.Fatalf("InfeasibleDetection(%v): %v", alg, err)
		}
		for _, r := range rows {
			fmt.Fprintf(&b, "infeasible %v m=%d var=%s crossbar=%dns iters=%s detected=%s\n",
				alg, r.M, g(r.Variation), int64(r.Crossbar), g(r.Iterations), g(r.DetectionRate))
		}
	}
	for _, v := range cfg.Variations {
		c := cfg
		c.Variations = []float64{v}
		rows, err := BatchThroughput(c, 4, []int{1, 2})
		if err != nil {
			t.Fatalf("BatchThroughput(var=%v): %v", v, err)
		}
		for _, r := range rows {
			fmt.Fprintf(&b, "batch m=%d var=%s width=%d optimal=%s\n", r.M, g(v), r.Width, g(r.Optimal))
		}
	}
	got := strings.Split(b.String(), "\n")
	want := strings.Split(modeledPinned, "\n")
	for i := 0; i < max(len(got), len(want)); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, g, w)
		}
	}
}
