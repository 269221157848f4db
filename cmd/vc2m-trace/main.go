// vc2m-trace works with flight-recorder traces captured from the
// hypervisor simulator (vc2m-sim -trace-jsonl, or vc2m.WriteTraceJSONL of
// a RecordTrace run's events): it converts JSONL captures to Chrome trace-event JSON for
// ui.perfetto.dev, renders ASCII Gantt charts, explains deadline misses,
// and summarizes stream contents.
//
// Subcommands:
//
//	vc2m-trace convert -in run.jsonl -out run.json   # Perfetto/Chrome JSON
//	vc2m-trace gantt -in run.jsonl -from 0 -to 100   # ASCII timeline
//	vc2m-trace diagnose -in run.jsonl                # miss causes
//	vc2m-trace stats -in run.jsonl                   # event counts
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"vc2m/internal/hypersim"
	"vc2m/internal/obs"
	"vc2m/internal/timeunit"
	"vc2m/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// run is the defer-safe driver: subcommands return errors instead of
// os.Exit-ing mid-function, so deferred file closers always execute.
func run(args []string) int {
	// Global flags (the shared -log-level/-log-json pair) are parsed ahead
	// of the subcommand: `vc2m-trace -log-level debug convert ...`.
	gfs := flag.NewFlagSet("vc2m-trace", flag.ContinueOnError)
	gfs.SetOutput(io.Discard)
	logCfg := obs.LogFlags(gfs, "warn")
	if perr := gfs.Parse(args); perr != nil {
		usage()
		if errors.Is(perr, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	args = gfs.Args()
	lg, lerr := logCfg.Build(os.Stderr, obs.GetBuildInfo().LogAttrs()...)
	if lerr != nil {
		fmt.Fprintln(os.Stderr, "vc2m-trace:", lerr)
		return 2
	}
	lg.Debug("starting", "cmd", "vc2m-trace")
	if len(args) < 1 {
		usage()
		return 2
	}
	var err error
	switch args[0] {
	case "convert":
		err = cmdConvert(args[1:])
	case "gantt":
		err = cmdGantt(args[1:])
	case "diagnose":
		err = cmdDiagnose(args[1:])
	case "stats":
		err = cmdStats(args[1:])
	case "-h", "-help", "--help", "help":
		usage()
		return 0
	default:
		fmt.Fprintf(os.Stderr, "vc2m-trace: unknown subcommand %q\n\n", args[0])
		usage()
		return 2
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "vc2m-trace:", err)
		return 1
	}
	return 0
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: vc2m-trace <subcommand> [flags]

subcommands:
  convert   convert a JSONL trace to Chrome trace-event JSON (ui.perfetto.dev)
  gantt     render a window of the trace as per-core ASCII timelines
  diagnose  attribute every deadline miss in the trace to a cause
  stats     summarize the trace's event counts

run 'vc2m-trace <subcommand> -h' for flags. Capture traces with
'vc2m-sim -trace-jsonl run.jsonl' or vc2m.WriteTraceJSONL.
Global flags (before the subcommand): -log-level <debug|info|warn|error|off>, -log-json.
`)
}

// readEvents loads a JSONL trace from path ("-" or "" means stdin).
func readEvents(path string) ([]trace.Event, error) {
	var r io.Reader = os.Stdin
	if path != "" && path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close() //vc2m:closeflush read-only handle; the close error carries no data
		r = f
	}
	return trace.ReadJSONL(r)
}

func cmdConvert(args []string) error {
	fs := flag.NewFlagSet("convert", flag.ContinueOnError)
	in := fs.String("in", "", "input JSONL trace (default stdin)")
	out := fs.String("out", "", "output Chrome trace JSON file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	events, err := readEvents(*in)
	if err != nil {
		return err
	}
	var w io.Writer = os.Stdout
	var f *os.File
	if *out != "" {
		f, err = os.Create(*out)
		if err != nil {
			return err
		}
		w = f
	}
	if err := trace.WriteChrome(w, events); err != nil {
		if f != nil {
			_ = f.Close()
		}
		return err
	}
	if f != nil {
		// The Chrome export is invalid JSON until fully flushed; a close
		// error means a truncated file, so it must fail the command.
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d events); open it in ui.perfetto.dev\n", *out, len(events))
	}
	return nil
}

func cmdGantt(args []string) error {
	fs := flag.NewFlagSet("gantt", flag.ContinueOnError)
	in := fs.String("in", "", "input JSONL trace (default stdin)")
	from := fs.Float64("from", 0, "window start in ms")
	to := fs.Float64("to", 0, "window end in ms (0 means the trace's end)")
	width := fs.Int("width", 100, "columns per row")
	if err := fs.Parse(args); err != nil {
		return err
	}

	events, err := readEvents(*in)
	if err != nil {
		return err
	}
	slices := hypersim.SlicesFromEvents(events)
	end := timeunit.FromMillis(*to)
	if *to <= 0 {
		for _, s := range slices {
			if s.End > end {
				end = s.End
			}
		}
	}
	fmt.Print(hypersim.RenderGantt(slices, timeunit.FromMillis(*from), end, *width))
	return nil
}

func cmdDiagnose(args []string) error {
	fs := flag.NewFlagSet("diagnose", flag.ContinueOnError)
	in := fs.String("in", "", "input JSONL trace (default stdin)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	events, err := readEvents(*in)
	if err != nil {
		return err
	}
	fmt.Print(trace.Diagnose(events).Render())
	return nil
}

func cmdStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ContinueOnError)
	in := fs.String("in", "", "input JSONL trace (default stdin)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	events, err := readEvents(*in)
	if err != nil {
		return err
	}
	counts := trace.CountByType(events)
	names := make([]string, 0, len(counts))
	for name := range counts { //vc2m:ordered keys are sorted below
		names = append(names, name)
	}
	sort.Strings(names)
	var span timeunit.Ticks
	for _, ev := range events {
		if ev.Time > span {
			span = ev.Time
		}
	}
	fmt.Printf("%d events over %v\n", len(events), span)
	for _, name := range names {
		fmt.Printf("  %-16s %d\n", name, counts[name])
	}
	return nil
}
