// mvtool is the Multiverse toolchain front-end: it performs the fat-binary
// link step — embed an AeroKernel image and an override configuration into
// an application image — and can inspect the result.
//
// Usage:
//
//	mvtool build -app myapp -overrides overrides.conf -o myapp.fat
//	mvtool inspect myapp.fat
//	mvtool trace out.json
//	mvtool bench -suite NAME [-json] [-o FILE]     (NAME: a row of bench.Suites)
//	mvtool bench -suite all > FIGURES.txt
//	mvtool bench -suite ablations
//	mvtool bench -suite grid -json -o BENCH_pr10.json
//	mvtool bench -suite obsv -compare BENCH_pr6.json
//	mvtool sloc
//	mvtool slo -in metrics.json -check slo.json
//	mvtool flight flight.txt
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"multiverse/internal/bench"
	"multiverse/internal/core"
	"multiverse/internal/image"
	"multiverse/internal/profiling"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "build":
		err = build(os.Args[2:])
	case "inspect":
		err = inspect(os.Args[2:])
	case "trace":
		err = traceCmd(os.Args[2:])
	case "bench":
		err = benchCmd(os.Args[2:])
	case "sloc":
		err = slocCmd()
	case "slo":
		err = sloCmd(os.Args[2:])
	case "flight":
		err = flightCmd(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "mvtool: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: mvtool build -app NAME [-overrides FILE] -o OUT.fat")
	fmt.Fprintln(os.Stderr, "       mvtool inspect FILE.fat")
	fmt.Fprintln(os.Stderr, "       mvtool trace [-top N] [-req ID] FILE.json")
	fmt.Fprintln(os.Stderr, "       mvtool bench [-suite NAME|GROUP|all] [-json] [-o FILE] [-compare PINNED.json [-tol R]] [-cpuprofile FILE]")
	fmt.Fprintln(os.Stderr, "       mvtool sloc")
	fmt.Fprintln(os.Stderr, "       mvtool slo -in METRICS.json [-report] [-check SPEC.json]")
	fmt.Fprintln(os.Stderr, "       mvtool flight [-code NAME] [-site N] [-summary] FILE.txt")
	os.Exit(2)
}

// benchCmd runs rows of the bench.Suites figure registry in order and
// prints their tables; -suite all is FIGURES.txt. With -json it prints
// one pinned suite's baseline document instead; with -compare it
// collects a fresh document, runs the suite's deterministic check
// against the pinned file, then the suite's host-time bound if it has
// one.
func benchCmd(args []string) error {
	var names []string
	for _, s := range bench.Suites {
		names = append(names, s.Name)
	}
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	suite := fs.String("suite", "all", "row of the figure registry, group (ablations), or all: "+strings.Join(names, ", "))
	asJSON := fs.Bool("json", false, "emit the pinned suite's baseline JSON document")
	out := fs.String("o", "", "write output to this file instead of stdout")
	compare := fs.String("compare", "", "collect a fresh baseline and check it against this pinned file, then apply the suite's host-time bound")
	tol := fs.Float64("tol", 0.2, "wall-clock tolerance for the simspeed -compare bound, as a ratio (0.2 = ±20%)")
	cpuProfile := fs.String("cpuprofile", "", "write a host pprof CPU profile of the suite to this file")
	memProfile := fs.String("memprofile", "", "write a host pprof heap profile at exit to this file")
	blockProfile := fs.String("blockprofile", "", "write a host pprof blocking profile at exit to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rows := bench.Select(*suite)
	if len(rows) == 0 {
		return fmt.Errorf("unknown suite %q (want all, ablations or one of %s)", *suite, strings.Join(names, ", "))
	}
	if (*asJSON || *compare != "") && (len(rows) != 1 || rows[0].File == "") {
		return fmt.Errorf("-json and -compare need one pinned suite; %q is not one", *suite)
	}
	stopProfiles, err := profiling.Start(profiling.Flags{CPU: *cpuProfile, Mem: *memProfile, Block: *blockProfile})
	if err != nil {
		return err
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintf(os.Stderr, "mvtool: %v\n", err)
		}
	}()
	if *compare != "" {
		return compareSuite(rows[0], *compare, *tol)
	}
	var blob []byte
	if *asJSON {
		_, blob, err = rows[0].Baseline()
	} else {
		blob, err = renderTables(rows)
	}
	if err != nil {
		return err
	}
	if *out != "" {
		return os.WriteFile(*out, blob, 0o644)
	}
	_, err = os.Stdout.Write(blob)
	return err
}

// renderTables renders each row's table followed by a blank line.
func renderTables(rows []bench.Suite) ([]byte, error) {
	var blob []byte
	for _, s := range rows {
		t, err := s.Figure()
		if err != nil {
			return nil, fmt.Errorf("suite %s: %w", s.Name, err)
		}
		blob = append(blob, t.String()+"\n"...)
	}
	return blob, nil
}

// slocCmd prints the source-lines-of-code table (the paper's Figure 8)
// for the module around the working directory. It counts source, not a
// result, so it is no row of the figure registry.
func slocCmd() error {
	t, err := bench.Figure8()
	if err != nil {
		return err
	}
	fmt.Println(t)
	return nil
}

// compareSuite is the CI regression gate for one suite: a fresh
// collection must pass the suite's deterministic check against the
// pinned document, then its host-time bound.
func compareSuite(s bench.Suite, pinnedPath string, tol float64) error {
	pinned, err := os.ReadFile(pinnedPath)
	if err != nil {
		return err
	}
	doc, blob, err := s.Baseline()
	if err != nil {
		return err
	}
	if err := s.Verify(pinned, doc, blob); err != nil {
		return err
	}
	summary := "deterministic fields match " + pinnedPath
	if s.HostBound != nil {
		if summary, err = s.HostBound(pinned, doc, tol); err != nil {
			return err
		}
	}
	fmt.Printf("%s ok: %s\n", s.Name, summary)
	return nil
}

func build(args []string) error {
	fs := flag.NewFlagSet("build", flag.ExitOnError)
	app := fs.String("app", "app", "application name for the synthesized image")
	overridesPath := fs.String("overrides", "", "override configuration file")
	out := fs.String("o", "app.fat", "output path for the fat binary")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var specs []core.OverrideSpec
	if *overridesPath != "" {
		data, err := os.ReadFile(*overridesPath)
		if err != nil {
			return err
		}
		specs, err = core.ParseOverrides(data)
		if err != nil {
			return err
		}
	}
	fat, err := core.Build(core.BuildInput{
		App:        core.NewAppImage(*app),
		AeroKernel: core.NewAeroKernelImage(),
		Overrides:  specs,
	})
	if err != nil {
		return err
	}
	if err := os.WriteFile(*out, fat.Encode(), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote fat binary %s: %d bytes, %d sections, %d symbols\n",
		*out, len(fat.Encode()), len(fat.Sections), len(fat.Symbols))
	return nil
}

func inspect(args []string) error {
	if len(args) != 1 {
		usage()
	}
	data, err := os.ReadFile(args[0])
	if err != nil {
		return err
	}
	fat, err := image.Decode(data)
	if err != nil {
		return err
	}
	fmt.Printf("image %s: entry %#x\n", fat.Name, fat.Entry)
	for _, s := range fat.Sections {
		fmt.Printf("  section %-18s kind=%-18s vaddr=%#x size=%d\n", s.Name, s.Kind, s.VAddr, len(s.Data))
	}
	if ak, err := image.ExtractAeroKernel(fat); err == nil {
		fmt.Printf("  embedded AeroKernel %s: entry %#x, %d symbols\n", ak.Name, ak.Entry, len(ak.Symbols))
		for _, sym := range ak.Symbols {
			fmt.Printf("    %#016x %6d %s\n", sym.Addr, sym.Size, sym.Name)
		}
	}
	if ovr := image.ExtractOverrides(fat); ovr != nil {
		fmt.Printf("  override configuration:\n%s", ovr)
	}
	return nil
}
