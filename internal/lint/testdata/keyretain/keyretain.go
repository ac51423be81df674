// Testdata for the keyretain analyzer: reducer- and emit-wrapper-shaped
// callbacks retaining the engine-owned key, payload bytes or message
// view.
package keyretain

import "lintest/mr"

type sink struct {
	last []byte
	msgs *mr.Group
	tag  byte
	keys [][]byte
	byID map[string][]byte
}

// Reduce has the reducer shape: ([]byte, *mr.Group, *mr.Output).
func (s *sink) Reduce(key []byte, msgs *mr.Group, out *mr.Output) {
	s.last = key                                      // want `engine-owned key \[\]byte stored`
	s.msgs = msgs                                     // want `engine-owned msgs \*Group view stored`
	s.keys = append(s.keys, key)                      // want `engine-owned key \[\]byte stored`
	s.last = append([]byte(nil), key...)              // copies: the sanctioned idiom
	s.byID[string(key)] = append([]byte(nil), key...) // string(key) copies too

	k2 := key[1:] // a slice of the key still aliases the shuffle buffer
	s.last = k2   // want `engine-owned key \[\]byte stored`

	tag, p := msgs.At(0) // a payload aliases the shuffle buffer, a tag is a value
	s.tag = tag
	s.last = p                         // want `engine-owned payload \[\]byte stored`
	s.keys = append(s.keys, p[1:])     // want `engine-owned payload \[\]byte stored`
	s.last = append([]byte(nil), p...) // copied
	s.byID[string(p)] = decode(p)      // a decoded value is a copy
	s.tag, s.last = msgs.At(1)         // want `engine-owned payload \[\]byte stored`

	go logKey(key)           // want `engine-owned key \[\]byte passed to a goroutine`
	go func() { use(key) }() // want `engine-owned key \[\]byte captured by a goroutine`
	go func() { use(p) }()   // want `engine-owned payload \[\]byte captured by a goroutine`

	ch := make(chan []byte, 1)
	ch <- key // want `engine-owned key \[\]byte sent on a channel`

	local := map[string][]byte{}
	local[string(key)] = key // local map dies with the callback
	use(local[""])
}

// reducerFuncLit exercises the ReducerFunc literal form.
var reducerFuncLit = mr.ReducerFunc(func(key []byte, msgs *mr.Group, out *mr.Output) {
	retained = key // want `engine-owned key \[\]byte assigned`
	use(string(key))
})

var retained []byte

// suppressed pins the //lint:ignore machinery: no want comment, so an
// unsuppressed diagnostic here fails the suite.
var suppressed = mr.ReducerFunc(func(key []byte, msgs *mr.Group, out *mr.Output) {
	retained = key //lint:ignore keyretain testdata: pins that suppression silences the finding
})

func use(any) {}

func logKey([]byte) {}

func decode(p []byte) []byte { return append([]byte(nil), p...) }
