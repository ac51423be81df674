// Command gumbo parses an SGF query, loads or generates its input
// relations, evaluates it under a chosen strategy on the in-process
// MapReduce engine, and reports the output and the paper's performance
// metrics.
//
// Usage:
//
//	gumbo -query q.sgf -data dir [-strategy GREEDY] [-out dir]
//	gumbo -q 'Z := SELECT x FROM R(x,y) WHERE S(x);' -gen -tuples 100000
//
// Data directories hold one TSV file per base relation (<name>.tsv);
// with -gen, synthetic data in the paper's style is generated instead.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	gumbo "repro"
	"repro/internal/relation"
	"repro/internal/sgf"
	"repro/internal/workload"
)

func main() {
	var (
		queryFile = flag.String("query", "", "file containing the SGF query")
		queryText = flag.String("q", "", "inline SGF query text")
		dataDir   = flag.String("data", "", "directory with <relation>.tsv input files")
		gen       = flag.Bool("gen", false, "generate synthetic inputs instead of loading them")
		tuples    = flag.Int("tuples", 100000, "tuples per generated relation")
		match     = flag.Float64("match", 0.5, "fraction of generated conditional tuples matching the guard")
		seed      = flag.Int64("seed", 1, "generator seed")
		strategy  = flag.String("strategy", "auto", strategyHelp())
		nodes     = flag.Int("nodes", 10, "simulated cluster nodes")
		slots     = flag.Int("slots", 10, "container slots per node")
		scale     = flag.Float64("scale", 0.001, "cost-model scale factor (buffers, splits)")
		outDir    = flag.String("out", "", "directory to write output relations as TSV")
		explain   = flag.Bool("explain", false, "print the plan and query structure without output tuples")
		showRows  = flag.Int("rows", 10, "output tuples to print (0 = none, -1 = all)")
	)
	flag.Parse()

	src := *queryText
	if *queryFile != "" {
		b, err := os.ReadFile(*queryFile)
		fatalIf(err)
		src = string(b)
	}
	if src == "" {
		fmt.Fprintln(os.Stderr, "gumbo: provide -query FILE or -q 'QUERY'")
		flag.Usage()
		os.Exit(2)
	}
	q, err := gumbo.Parse(src)
	fatalIf(err)

	var db *gumbo.Database
	switch {
	case *gen:
		wl := workload.Workload{
			Name:        "cli",
			Program:     sgf.MustParse(src),
			GuardTuples: *tuples,
			CondTuples:  *tuples,
			MatchFrac:   *match,
			Seed:        *seed,
		}
		db = wl.Build(1.0)
	case *dataDir != "":
		db, err = loadDir(q, *dataDir)
		fatalIf(err)
	default:
		fmt.Fprintln(os.Stderr, "gumbo: provide -data DIR or -gen")
		os.Exit(2)
	}

	sys := gumbo.New(gumbo.WithCluster(*nodes, *slots), gumbo.WithScale(*scale))
	strat := gumbo.Strategy(strings.ToUpper(*strategy))
	if strings.EqualFold(*strategy, "auto") {
		strat = sys.Auto(q)
	}

	fmt.Print(q.Describe())
	plan, err := sys.Plan(q, db, strat)
	fatalIf(err)
	fmt.Printf("plan: %s\n", plan)
	if *explain {
		return
	}

	res, err := sys.RunPlan(plan, db)
	fatalIf(err)
	fmt.Printf("metrics: %s\n", res.Metrics)
	fmt.Printf("output %s: %d tuples\n", q.Name(), res.Relation.Size())
	if *showRows != 0 {
		n := *showRows
		if n < 0 || n > res.Relation.Size() {
			n = res.Relation.Size()
		}
		for i, t := range res.Relation.Sorted() {
			if i >= n {
				fmt.Printf("  ... (%d more)\n", res.Relation.Size()-n)
				break
			}
			fmt.Printf("  %s\n", t)
		}
	}
	if *outDir != "" {
		fatalIf(os.MkdirAll(*outDir, 0o755))
		written := 0
		for _, name := range q.OutputNames() {
			rel := res.Outputs.Relation(name)
			if rel == nil {
				continue
			}
			f, err := os.Create(filepath.Join(*outDir, rel.Name()+".tsv"))
			fatalIf(err)
			fatalIf(rel.WriteTSV(f))
			fatalIf(f.Close())
			written++
		}
		fmt.Printf("wrote %d relations to %s\n", written, *outDir)
	}
}

// strategyHelp lists the -strategy values: the library's strategies and
// auto.
func strategyHelp() string {
	var b strings.Builder
	for _, s := range gumbo.Strategies() {
		b.WriteString(string(s) + "|")
	}
	return b.String() + "auto"
}

func loadDir(q *gumbo.Query, dir string) (*gumbo.Database, error) {
	db := gumbo.NewDatabase()
	arities := q.BaseRelationArities()
	for _, name := range q.BaseRelations() {
		path := filepath.Join(dir, name+".tsv")
		f, err := os.Open(path)
		if err != nil {
			return nil, fmt.Errorf("relation %s: %w", name, err)
		}
		rel, err := relation.ReadTSV(name, arities[name], f)
		f.Close()
		if err != nil {
			return nil, err
		}
		db.Put(rel)
	}
	return db, nil
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "gumbo:", err)
		os.Exit(1)
	}
}
