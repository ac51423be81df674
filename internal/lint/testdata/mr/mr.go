// Package mr is a miniature of repro/internal/mr carrying exactly the
// shapes the gumbo-lint analyzers match on (package name + type names
// + signatures). The analyzers are tested against these stubs so the
// suites stay hermetic and fast; the real engine types must keep these
// shapes or the matchers drift (TestLintRepo dogfoods the real tree).
package mr

import "lintest/relation"

type Emitter struct{}

func (e *Emitter) Emit(key []byte, tag byte, size int64, payload []byte) {}

type Group struct{}

func (g *Group) Len() int { return 0 }

func (g *Group) At(i int) (tag byte, payload []byte) { return 0, nil }

type Output struct{}

func (o *Output) Add(name string, t relation.Tuple) {}

type Mapper interface {
	Map(input string, id int, t relation.Tuple, emit *Emitter)
}

type MapperFunc func(input string, id int, t relation.Tuple, emit *Emitter)

func (f MapperFunc) Map(input string, id int, t relation.Tuple, emit *Emitter) { f(input, id, t, emit) }

type Reducer interface {
	Reduce(key []byte, msgs *Group, out *Output)
}

type ReducerFunc func(key []byte, msgs *Group, out *Output)

func (f ReducerFunc) Reduce(key []byte, msgs *Group, out *Output) { f(key, msgs, out) }

type Job struct {
	Name    string
	Inputs  []string
	Outputs map[string]int
	Mapper  Mapper
	Reducer Reducer
}

type PartStats struct {
	Input   string
	InterMB float64
	Records int64
}

type JobStats struct {
	Name     string
	Parts    []PartStats
	OutputMB float64
	Reducers int
}
