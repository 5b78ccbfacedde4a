// Command fgrun executes one application on the FREERIDE-G middleware and
// prints the execution-time breakdown the prediction framework consumes.
//
// By default the run uses the simulated testbed (paper-scale datasets in
// milliseconds of wall time); -local runs the real goroutine backend with
// materialized data instead. -size accepts a comma-separated list of
// sizes: the simulated runs then fan out over a bounded worker pool
// (-parallel) and their reports print in list order.
//
// Examples:
//
//	fgrun -app kmeans -size 1.4GB -data 2 -compute 8
//	fgrun -app defect -size 130MB -data 1 -compute 4 -cluster opteron-infiniband
//	fgrun -app vortex -size 8MB -local -compute 4
//	fgrun -app kmeans -size 512MB -data 2 -compute 8 -fault-seed 7 -trace
//	fgrun -app kmeans -size 512MB -compute 4 -fault-plan 'crash node=1 pass=2; slow-disk node=0 factor=8'
//	fgrun -app kmeans -size 256MB,512MB,1GB,2GB -compute 8 -parallel 4
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"time"

	"freerideg/internal/apps"
	"freerideg/internal/bench"
	"freerideg/internal/cliutil"
	"freerideg/internal/core"
	"freerideg/internal/middleware"
	"freerideg/internal/simgrid"
	"freerideg/internal/units"
)

func main() {
	var (
		app       = cliutil.App("kmeans", apps.Names())
		size      = cliutil.BytesList("size", 512*units.MB, "dataset size, or a comma-separated sweep (e.g. 256MB,1.4GB)")
		data      = flag.Int("data", 1, "storage (data server) nodes")
		compute   = flag.Int("compute", 1, "compute nodes (must be >= data nodes)")
		bwFlag    = cliutil.Rate("bw", 100*units.MBPerSec, "storage-to-compute bandwidth per node, per second")
		cluster   = flag.String("cluster", bench.PentiumCluster, "simulated cluster")
		local     = flag.Bool("local", false, "run the real goroutine backend instead of the simulator")
		trace     = flag.Bool("trace", false, "print the middleware phase trace as text")
		traceJSON = flag.Bool("trace-json", false, "print the middleware phase trace as JSON lines")
		faultSeed = flag.Int64("fault-seed", 0, "generate a deterministic fault plan from this seed (0 = no faults)")
		faultPlan = flag.String("fault-plan", "", "explicit fault plan, e.g. 'crash node=1 pass=2; flaky-link node=0 count=2'")
		parallel  = cliutil.Parallel("max concurrent simulations in a -size sweep (0 = GOMAXPROCS)")
	)
	flag.Parse()
	if *faultSeed != 0 && *faultPlan != "" {
		fail(fmt.Errorf("-fault-seed and -fault-plan are mutually exclusive"))
	}

	totals := size.Sizes
	bw := bwFlag.Rate
	a, err := apps.Get(*app)
	if err != nil {
		fail(err)
	}

	if *local {
		if len(totals) > 1 {
			fail(fmt.Errorf("-local runs on real wall time; sweep one size at a time"))
		}
		runLocal(os.Stdout, a, *app, totals[0], *data, *compute,
			*trace, *traceJSON, *faultSeed, *faultPlan)
		return
	}

	grid, err := middleware.NewGrid(middleware.PentiumMyrinet(), middleware.OpteronInfiniband())
	if err != nil {
		fail(err)
	}
	run := func(w io.Writer, total units.Bytes) error {
		return runSimulated(w, grid, a, *app, total, *data, *compute, bw, *cluster,
			*trace, *traceJSON, *faultSeed, *faultPlan)
	}
	if len(totals) == 1 {
		if err := run(os.Stdout, totals[0]); err != nil {
			fail(err)
		}
		return
	}

	// Size sweep: each size runs into its own buffer on a bounded pool,
	// and reports print in list order as they complete.
	workers := *parallel
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	sem := make(chan struct{}, workers)
	bufs := make([]bytes.Buffer, len(totals))
	errs := make([]error, len(totals))
	done := make([]chan struct{}, len(totals))
	var wg sync.WaitGroup
	for i := range totals {
		done[i] = make(chan struct{})
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer close(done[i])
			sem <- struct{}{}
			defer func() { <-sem }()
			errs[i] = run(&bufs[i], totals[i])
		}(i)
	}
	for i := range totals {
		<-done[i]
		os.Stdout.Write(bufs[i].Bytes())
		if errs[i] != nil {
			fail(errs[i])
		}
	}
	wg.Wait()
}

// runSimulated executes one simulated run and writes its report (and any
// requested trace) to w, so sweep output never interleaves.
func runSimulated(w io.Writer, grid *middleware.Grid, a apps.App, app string, total units.Bytes,
	data, compute int, bw units.Rate, cluster string,
	trace, traceJSON bool, faultSeed int64, faultPlan string) error {
	spec, err := bench.Dataset(app, total)
	if err != nil {
		return err
	}
	cfg := core.Config{
		Cluster:      cluster,
		DataNodes:    data,
		ComputeNodes: compute,
		Bandwidth:    bw,
		DatasetBytes: total,
	}
	cost, err := a.Cost(spec)
	if err != nil {
		return err
	}
	faults, err := resolveFaults(w, faultSeed, faultPlan, data, compute, cost.Iterations)
	if err != nil {
		return err
	}
	res, err := grid.SimulateOpts(cost, spec, cfg,
		middleware.SimOptions{Faults: faults, Trace: traceSink(w, trace, traceJSON)})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "simulated run: %s on %v\n", app, cfg)
	fmt.Fprintf(w, "  makespan:    %v\n", res.Makespan.Round(time.Millisecond))
	printRecovery(w, res.Recovery, res.Retries)
	printProfile(w, res.Profile)
	return nil
}

// runLocal executes the real goroutine backend for one size.
func runLocal(w io.Writer, a apps.App, app string, total units.Bytes,
	data, compute int, trace, traceJSON bool, faultSeed int64, faultPlan string) {
	spec, err := bench.Dataset(app, total)
	if err != nil {
		fail(err)
	}
	kernel, err := a.NewKernel(spec)
	if err != nil {
		fail(err)
	}
	faults, err := resolveFaults(w, faultSeed, faultPlan, data, compute, kernel.Iterations())
	if err != nil {
		fail(err)
	}
	res, err := middleware.RunLocalOpts(kernel, spec, data, compute,
		middleware.LocalOptions{Faults: faults, Trace: traceSink(w, trace, traceJSON)})
	if err != nil {
		fail(err)
	}
	fmt.Fprintf(w, "local run: %s on %v, %d data / %d compute goroutines\n",
		app, total, data, compute)
	fmt.Fprintf(w, "  wall time:   %v over %d pass(es)\n", res.Elapsed.Round(time.Millisecond), res.Iterations)
	printRecovery(w, res.Recovery, res.Retries)
	printProfile(w, res.Profile)
}

// traceSink returns the phase-trace sink the -trace/-trace-json flags
// ask for, writing to w (nil: no trace; JSON wins when both are set).
func traceSink(w io.Writer, trace, traceJSON bool) middleware.Sink {
	switch {
	case traceJSON:
		return middleware.NewJSONSink(w)
	case trace:
		return middleware.NewTextSink(w)
	}
	return nil
}

// resolveFaults builds the run's fault plan from the CLI flags: an
// explicit -fault-plan wins, a nonzero -fault-seed generates a plan
// deterministically (and echoes it so the run is reproducible with
// -fault-plan), and nil means fault injection is off.
func resolveFaults(w io.Writer, seed int64, planText string, dataNodes, computeNodes, passes int) (*simgrid.FaultPlan, error) {
	switch {
	case planText != "":
		plan, err := simgrid.ParseFaultPlan(planText)
		if err != nil {
			return nil, err
		}
		return &plan, nil
	case seed != 0:
		plan := simgrid.GenerateFaultPlan(seed, dataNodes, computeNodes, passes)
		fmt.Fprintf(w, "fault plan (seed %d): %s\n", seed, plan)
		return &plan, nil
	}
	return nil, nil
}

func printRecovery(w io.Writer, recovery time.Duration, retries int) {
	if recovery == 0 && retries == 0 {
		return
	}
	fmt.Fprintf(w, "  recovery:    %v over %d retried deliver(ies)\n",
		recovery.Round(time.Millisecond), retries)
}

func printProfile(w io.Writer, p core.Profile) {
	fmt.Fprintf(w, "  T_disk:      %v\n", p.Tdisk.Round(time.Millisecond))
	fmt.Fprintf(w, "  T_network:   %v\n", p.Tnetwork.Round(time.Millisecond))
	fmt.Fprintf(w, "  T_compute:   %v (T_ro %v, T_g %v)\n",
		p.Tcompute.Round(time.Millisecond), p.Tro.Round(time.Millisecond), p.Tglobal.Round(time.Millisecond))
	fmt.Fprintf(w, "  T_exec:      %v\n", p.Texec().Round(time.Millisecond))
	fmt.Fprintf(w, "  RO per node: %v, broadcast %v, %d iteration(s)\n",
		p.ROBytesPerNode, p.BroadcastBytes, p.Iterations)
}

func fail(err error) { cliutil.Fatal("fgrun", err) }
