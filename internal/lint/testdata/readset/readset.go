// Testdata for the readset analyzer: mr.Job construction whose mapper
// reads are not covered by the declared Inputs.
package readset

import (
	"lintest/mr"
	"lintest/relation"
)

func passThrough(input string, id int, t relation.Tuple, emit *mr.Emitter) {}

func noInputs() mr.Job {
	return mr.Job{ // want `mr.Job declares a Mapper but no Inputs`
		Name:   "q1",
		Mapper: mr.MapperFunc(passThrough),
	}
}

func emptyInputs() mr.Job {
	return mr.Job{ // want `mr.Job declares a Mapper but no Inputs`
		Name:   "q2",
		Inputs: []string{},
		Mapper: mr.MapperFunc(passThrough),
	}
}

// Reduce-only jobs have no map tasks to schedule early; Inputs may be
// empty.
func reduceOnly(r mr.Reducer) mr.Job {
	return mr.Job{Name: "fold", Reducer: r}
}

func capturesRelation(guard *relation.Relation) mr.Job {
	return mr.Job{
		Name:   "q3",
		Inputs: []string{"R"},
		Mapper: mr.MapperFunc(func(input string, id int, t relation.Tuple, emit *mr.Emitter) {
			if guard.Contains(t) { // want `mapper/reducer closure captures relation "guard" at plan time`
				emit.Emit(nil, 0, 0, nil)
			}
		}),
	}
}

func capturesDatabase(db *relation.Database) mr.Job {
	return mr.Job{
		Name:   "q4",
		Inputs: []string{"R"},
		Reducer: mr.ReducerFunc(func(key []byte, msgs *mr.Group, out *mr.Output) {
			_ = db.Get("S") // want `mapper/reducer closure captures database "db" at plan time`
		}),
	}
}

// declared inputs plus a parameter-only mapper: the legal shape.
func good() mr.Job {
	return mr.Job{
		Name:   "q5",
		Inputs: []string{"R", "S"},
		Mapper: mr.MapperFunc(func(input string, id int, t relation.Tuple, emit *mr.Emitter) {
			emit.Emit([]byte(input), 0, 0, nil)
		}),
	}
}

func suppressed() mr.Job {
	return mr.Job{Mapper: mr.MapperFunc(passThrough)} //lint:ignore readset testdata: pins that suppression silences the finding
}
