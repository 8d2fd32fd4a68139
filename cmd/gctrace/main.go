// Command gctrace inspects and converts GC trace files captured with
// gcbench -trace (or any harness run with tracing enabled).
//
// Usage:
//
//	gctrace summary [-top N] FILE    # phase breakdown, marker hit rate,
//	                                 # pause histogram, per-site tenure table
//	gctrace metrics FILE             # per-run metrics dump
//	gctrace check FILE               # parse + validate; exits non-zero on
//	                                 # schema, reconciliation or metric failure
//	gctrace convert -to chrome [-o OUT] FILE   # JSONL -> Perfetto JSON
//	gctrace slo [-windows W,..] [-o OUT] FILE  # SLO report: exact pause and
//	                                           # request percentiles, MMU/AMU
//	                                           # curve (-o writes report JSONL)
//	gctrace mmu [-windows W,..] [-chrome OUT] FILE  # utilization curve table
//	                                           # (-chrome writes Perfetto
//	                                           # counter tracks)
//	gctrace store FILE               # summarize an advisor profile store
//	                                 # (gcbench -adapt-store, -export-store)
//
// FILE is a schema-versioned JSONL trace; "-" reads stdin. Chrome-format
// traces are a write-only sink (load them in Perfetto / chrome://tracing);
// convert accepts only JSONL input.
//
// All quantities are simulated cycles from the cost model, so output for
// a given trace is byte-identical everywhere.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"tilgc/internal/adapt"
	"tilgc/internal/slo"
	"tilgc/internal/trace"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "summary":
		err = cmdSummary(os.Args[2:])
	case "metrics":
		err = cmdMetrics(os.Args[2:])
	case "check":
		err = cmdCheck(os.Args[2:])
	case "convert":
		err = cmdConvert(os.Args[2:])
	case "slo":
		err = cmdSLO(os.Args[2:])
	case "mmu":
		err = cmdMMU(os.Args[2:])
	case "store":
		err = cmdStore(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "gctrace: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "gctrace:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  gctrace summary [-top N] FILE              human-readable trace digest
  gctrace metrics FILE                       per-run metrics dump
  gctrace check FILE                         validate schema + reconciliation
  gctrace convert -to FORMAT [-o OUT] FILE   convert (FORMAT: jsonl, chrome)
  gctrace slo [-windows W,..] [-o OUT] FILE  SLO report: pause/request
                                             percentiles + utilization curve
                                             (-o writes the report as JSONL)
  gctrace mmu [-windows W,..] [-chrome OUT] FILE
                                             MMU/AMU curve table (-chrome
                                             writes Perfetto counter tracks)
  gctrace store FILE                         summarize an advisor profile
                                             store (gcbench -adapt-store,
                                             gcbench -figure 2 -export-store)

FILE is a JSONL trace from 'gcbench -trace'; "-" reads stdin.`)
}

// readFile decodes the file named by fs's sole positional argument ("-"
// reads stdin) with read: trace.ReadJSONL for a trace, adapt.ReadJSONL
// for a store. Errors name the file.
func readFile[T any](fs *flag.FlagSet, read func(io.Reader) (T, error)) (T, error) {
	var zero T
	if fs.NArg() != 1 {
		return zero, fmt.Errorf("want exactly one file argument, got %d", fs.NArg())
	}
	name := fs.Arg(0)
	var in io.Reader
	if name == "-" {
		in = os.Stdin
	} else {
		f, err := os.Open(name)
		if err != nil {
			return zero, err
		}
		defer f.Close()
		in = f
	}
	v, err := read(in)
	if err != nil {
		return zero, fmt.Errorf("%s: %w", name, err)
	}
	return v, nil
}

func cmdSummary(args []string) error {
	fs := flag.NewFlagSet("gctrace summary", flag.ExitOnError)
	top := fs.Int("top", 5, "number of longest pauses to list per run")
	fs.Parse(args)
	f, err := readFile(fs, trace.ReadJSONL)
	if err != nil {
		return err
	}
	return f.WriteSummary(os.Stdout, *top)
}

func cmdMetrics(args []string) error {
	fs := flag.NewFlagSet("gctrace metrics", flag.ExitOnError)
	fs.Parse(args)
	f, err := readFile(fs, trace.ReadJSONL)
	if err != nil {
		return err
	}
	return f.WriteMetrics(os.Stdout)
}

func cmdCheck(args []string) error {
	fs := flag.NewFlagSet("gctrace check", flag.ExitOnError)
	fs.Parse(args)
	f, err := readFile(fs, trace.ReadJSONL)
	if err != nil {
		return err
	}
	if err := f.Validate(); err != nil {
		return err
	}
	events := 0
	for _, d := range f.Runs {
		events += len(d.Events)
	}
	fmt.Printf("ok: schema %d, %d runs, %d events; spans paired, phase cycles reconcile with meter totals, metrics match events\n",
		f.Schema, len(f.Runs), events)
	return nil
}

// parseWindows parses a comma-separated window sweep in cycles; an empty
// string selects the default sweep.
func parseWindows(s string) ([]uint64, error) {
	if s == "" {
		return slo.DefaultWindows, nil
	}
	var out []uint64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseUint(strings.TrimSpace(part), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad -windows entry %q: %v", part, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func cmdSLO(args []string) (err error) {
	fs := flag.NewFlagSet("gctrace slo", flag.ExitOnError)
	windows := fs.String("windows", "", "comma-separated window sweep in cycles (default 1000,10000,100000,1000000)")
	out := fs.String("o", "", "also write the report as schema-versioned JSONL to FILE (\"-\" = stdout instead of the table)")
	fs.Parse(args)
	wins, err := parseWindows(*windows)
	if err != nil {
		return err
	}
	f, err := readFile(fs, trace.ReadJSONL)
	if err != nil {
		return err
	}
	rep, err := slo.ComputeFile(f, wins)
	if err != nil {
		return err
	}
	if err := rep.Validate(); err != nil {
		return fmt.Errorf("computed report fails validation: %w", err)
	}
	if *out == "-" {
		return rep.WriteJSONL(os.Stdout)
	}
	if *out != "" {
		of, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer func() {
			if cerr := of.Close(); err == nil {
				err = cerr
			}
		}()
		if err := rep.WriteJSONL(of); err != nil {
			return err
		}
	}
	return rep.WriteTable(os.Stdout)
}

func cmdMMU(args []string) (err error) {
	fs := flag.NewFlagSet("gctrace mmu", flag.ExitOnError)
	windows := fs.String("windows", "", "comma-separated window sweep in cycles (default 1000,10000,100000,1000000)")
	chrome := fs.String("chrome", "", "also write the curves as Perfetto counter tracks to FILE (\"-\" = stdout instead of the table)")
	fs.Parse(args)
	wins, err := parseWindows(*windows)
	if err != nil {
		return err
	}
	f, err := readFile(fs, trace.ReadJSONL)
	if err != nil {
		return err
	}
	rep, err := slo.ComputeFile(f, wins)
	if err != nil {
		return err
	}
	if *chrome == "-" {
		return rep.WriteChromeCounters(os.Stdout)
	}
	if *chrome != "" {
		of, err := os.Create(*chrome)
		if err != nil {
			return err
		}
		defer func() {
			if cerr := of.Close(); err == nil {
				err = cerr
			}
		}()
		if err := rep.WriteChromeCounters(of); err != nil {
			return err
		}
	}
	return rep.WriteMMUTable(os.Stdout)
}

func cmdConvert(args []string) (err error) {
	fs := flag.NewFlagSet("gctrace convert", flag.ExitOnError)
	to := fs.String("to", "chrome", "output format: jsonl or chrome")
	out := fs.String("o", "-", "output file (\"-\" = stdout)")
	fs.Parse(args)
	if *to != "jsonl" && *to != "chrome" {
		return fmt.Errorf("unknown -to format %q (want jsonl or chrome)", *to)
	}
	f, err := readFile(fs, trace.ReadJSONL)
	if err != nil {
		return err
	}
	var w io.Writer = os.Stdout
	if *out != "-" {
		of, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer func() {
			if cerr := of.Close(); err == nil {
				err = cerr
			}
		}()
		w = of
	}
	if *to == "chrome" {
		err = f.WriteChrome(w)
	} else {
		err = f.WriteJSONL(w)
	}
	return err
}

// cmdStore summarizes an advisor profile store: per profile, its sites
// with their survival share and the pretenured ones starred. Schema
// mismatches and malformed records surface the store reader's errors.
func cmdStore(args []string) error {
	fs := flag.NewFlagSet("gctrace store", flag.ExitOnError)
	fs.Parse(args)
	store, err := readFile(fs, adapt.ReadJSONL)
	if err != nil {
		return err
	}
	fmt.Printf("%s: %d profiles\n", fs.Arg(0), len(store.Profiles))
	for _, p := range store.Profiles {
		pretenured := 0
		for _, s := range p.Sites {
			if s.Pretenured {
				pretenured++
			}
		}
		fmt.Printf("\n%s (workload %s): %d sites, %d pretenured\n",
			p.Label, p.Workload, len(p.Sites), pretenured)
		for _, s := range p.Sites {
			surv := 0.0
			if total := s.SurvWords + s.DeadWords; total > 0 {
				surv = 100 * float64(s.SurvWords) / float64(total)
			}
			mark := " "
			if s.Pretenured {
				mark = "*"
			}
			fmt.Printf("  %s site %-6d %-24s surv %5.1f%%  words %d/%d  placed/died %d/%d\n",
				mark, s.Site, s.Name, surv,
				s.SurvWords, s.SurvWords+s.DeadWords, s.PretPlaced, s.PretDied)
		}
	}
	return nil
}
