// Fault injection and recovery: kill the ROS partner thread under a
// running HRT program and watch the execution group respawn it at the
// same virtual point, replay the mirrored-state merge, and redeliver
// the in-flight request — with the program none the wiser.
//
// The scenario in partner-death.json scripts three faults: a partner
// death on the first serviced request, then a dropped notification and a
// corrupted request frame later in the run. The demo runs the same
// program clean and faulted and checks the outputs are byte-identical —
// the recovery correctness property: injection perturbs timing, never
// results.
//
// Run: go run ./examples/faults
//
// The same scenario drives the CLI:
//
//	mvrun -world multiverse -bench fasta -fault-spec examples/faults/partner-death.json -stats
package main

import (
	"bytes"
	"fmt"
	"log"
	"os"

	"multiverse/internal/core"
	"multiverse/internal/faults"
	"multiverse/internal/linuxabi"
)

// workload crosses the boundary often enough for every scripted fault
// to land: a stream of writes, each forwarded to the ROS partner.
func workload(env core.Env) uint64 {
	for i := 0; i < 32; i++ {
		msg := fmt.Sprintf("event %02d survived\n", i)
		env.Syscall(linuxabi.Call{
			Num:  linuxabi.SysWrite,
			Args: [6]uint64{1, 0, uint64(len(msg))},
			Data: []byte(msg),
		})
	}
	return 0
}

func run(plan *faults.Plan) (*core.System, []byte) {
	fat, err := core.Build(core.BuildInput{
		App:        core.NewAppImage("faults-demo"),
		AeroKernel: core.NewAeroKernelImage(),
	})
	if err != nil {
		log.Fatal(err)
	}
	sys, err := core.NewSystem(fat, core.Options{
		Hybrid:  true,
		AppName: "faults-demo",
		Faults:  plan,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := sys.InitRuntime(); err != nil {
		log.Fatal(err)
	}
	if _, err := sys.RunMain(workload); err != nil {
		log.Fatal(err)
	}
	return sys, []byte(sys.Proc.Stdout())
}

func main() {
	spec, err := os.ReadFile("examples/faults/partner-death.json")
	if err != nil {
		// Allow running from inside the directory too.
		spec, err = os.ReadFile("partner-death.json")
		if err != nil {
			log.Fatal(err)
		}
	}
	scenario, err := faults.ParseSpec(spec)
	if err != nil {
		log.Fatal(err)
	}

	_, cleanOut := run(nil)
	sys, faultedOut := run(&faults.Plan{Seed: 1, Spec: scenario})

	m := sys.Metrics()
	fmt.Printf("scripted faults fired:\n")
	for _, k := range []string{"partner-kill", "drop-notify", "corrupt-frame"} {
		fmt.Printf("  %-14s %d\n", k, m.Counter("faults.injected."+k).Value())
	}
	fmt.Printf("recovery:\n")
	fmt.Printf("  retransmits    %d\n", m.Counter("faults.retransmit").Value())
	fmt.Printf("  respawns       %d\n", m.Counter("faults.recovery").Value())
	fmt.Printf("  latency        %d virtual cycles (death -> partner serving again)\n",
		uint64(m.LatencyHistogram("faults.recovery.latency").Sum()))
	fmt.Printf("  degraded       %d (budget never exhausted)\n", m.Counter("faults.degraded").Value())

	if bytes.Equal(cleanOut, faultedOut) {
		fmt.Printf("\nrecovery property holds: faulted output is byte-identical to clean (%d bytes)\n", len(faultedOut))
	} else {
		fmt.Printf("\nRECOVERY PROPERTY VIOLATED: outputs diverge\nclean:\n%s\nfaulted:\n%s\n", cleanOut, faultedOut)
		os.Exit(1)
	}
}
