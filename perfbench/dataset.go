package main

import (
	"fmt"
	"math/rand"

	"cadcam"
	"cadcam/internal/bench"
	"cadcam/internal/paperschema"
	"cadcam/internal/version"
)

// scale sizes the generated design library.
type scale struct {
	ifaces     int // interface hierarchies GateInterface_I → GateInterface
	implsPer   int // implementations per interface: 1..implsPer, seeded
	floating   int // implementations the rebind operation moves around
	composites int // flip-flop composites (Figure 1)
	subgates   int // subgates per composite, bound to a shared interface
	designs    int // interfaces that are also version-managed designs (§6)
	timed      int // TimedComposite placements bound to a design's default
}

// fullScale is the library of a benchmark run. The in-memory workload
// needs an object set far beyond the L2 cache; the durable workloads
// build the same library through fsynced journals, so their library is
// smaller to keep set-up short (see designScale).
var fullScale = scale{ifaces: 1500, implsPer: 4, floating: 128, composites: 400, subgates: 4}

// designScale is the library of the durable workloads.
func designScale(sc scale) scale {
	return scale{ifaces: sc.ifaces / 3, implsPer: sc.implsPer, designs: sc.ifaces / 3, timed: sc.ifaces / 6}
}

// Names of the classes and index the generated library defines.
const (
	implClass = "impls"
	implIndex = "impls_length"
	lengthMax = 200 // Length values are 1..lengthMax
)

// library is a generated chip-design library: interface hierarchies,
// implementations bound to them, flip-flop composites whose subgates
// bind to shared component interfaces, and version-managed designs.
type library struct {
	ifaces   []cadcam.Surrogate
	impls    []cadcam.Surrogate // bound for the whole run
	byIface  [][]int            // implementation indices per interface
	floating []cadcam.Surrogate
	comps    []*bench.FlipFlop
	subgates []cadcam.Surrogate
	designs  []string // designs[i] is anchored to ifaces[i]
	timed    []cadcam.Surrogate
}

// buildLibrary generates the library from r through the database facade,
// so a durable database journals every step.
func buildLibrary(db *cadcam.Database, sc scale, r *rand.Rand) (*library, error) {
	lib := &library{byIface: make([][]int, sc.ifaces)}
	if err := db.DefineClass(implClass, paperschema.TypeGateImplementation); err != nil {
		return nil, err
	}
	if err := db.CreateIndex(implIndex, implClass, "Length"); err != nil {
		return nil, err
	}
	for i := 0; i < sc.ifaces; i++ {
		iface, err := bench.Interface(db, 2, 1, 1+r.Int63n(lengthMax), 1+r.Int63n(50))
		if err != nil {
			return nil, err
		}
		lib.ifaces = append(lib.ifaces, iface)
	}
	newImpl := func(iface int) (cadcam.Surrogate, error) {
		impl, err := db.NewObject(paperschema.TypeGateImplementation, implClass)
		if err != nil {
			return 0, err
		}
		if _, err := db.Bind(paperschema.RelAllOfGateInterface, impl, lib.ifaces[iface]); err != nil {
			return 0, err
		}
		return impl, db.SetAttr(impl, "TimeBehavior", cadcam.Int(r.Int63n(100)))
	}
	for i := 0; i < sc.ifaces; i++ {
		for n := 1 + r.Intn(sc.implsPer); n > 0; n-- {
			impl, err := newImpl(i)
			if err != nil {
				return nil, err
			}
			lib.byIface[i] = append(lib.byIface[i], len(lib.impls))
			lib.impls = append(lib.impls, impl)
		}
	}
	for i := 0; i < sc.floating; i++ {
		impl, err := newImpl(r.Intn(sc.ifaces))
		if err != nil {
			return nil, err
		}
		lib.floating = append(lib.floating, impl)
	}
	for i := 0; i < sc.composites; i++ {
		ff, err := bench.BuildFlipFlop(db, sc.subgates)
		if err != nil {
			return nil, err
		}
		lib.comps = append(lib.comps, ff)
		lib.subgates = append(lib.subgates, ff.SubGates...)
	}
	for i := 0; i < sc.designs; i++ {
		name := fmt.Sprintf("design-%d", i)
		if err := db.DefineDesign(name, lib.ifaces[i]); err != nil {
			return nil, err
		}
		first := lib.impls[lib.byIface[i][0]]
		if _, err := db.AddVersion(name, first, nil, "main"); err != nil {
			return nil, err
		}
		if err := db.SetDefault(name, first); err != nil {
			return nil, err
		}
		lib.designs = append(lib.designs, name)
	}
	for i := 0; i < sc.timed; i++ {
		tc, err := db.NewObject(paperschema.TypeTimedComposite, "")
		if err != nil {
			return nil, err
		}
		ref := version.GenericRef{Design: lib.designs[r.Intn(len(lib.designs))], Policy: cadcam.SelectDefault}
		if _, _, err := db.BindResolved(paperschema.RelSomeOfGate, tc, ref, nil); err != nil {
			return nil, err
		}
		lib.timed = append(lib.timed, tc)
	}
	return lib, nil
}

// picker draws indices 0..n-1 with Zipf skew, through a seeded
// permutation so the hot keys are spread over the store's shards.
type picker struct {
	z    *rand.Zipf
	perm []int
}

func newPicker(r *rand.Rand, perm []int) *picker {
	// s=1.2, v=4: a designer's working set is a small, hot part of the
	// library, without a single dominating key.
	return &picker{z: rand.NewZipf(r, 1.2, 4, uint64(len(perm)-1)), perm: perm}
}

func (p *picker) pick() int { return p.perm[p.z.Uint64()] }
