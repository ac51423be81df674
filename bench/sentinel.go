package main

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// sentinel measures how slow the machine is right now, with the workload
// idle. The box this benchmark runs on shares its cores, caches and
// memory with other tenants, and its speed moves by tens of percent for
// seconds to minutes at a time; a round's timings are only comparable to
// another round's after division by the machine speed around each.
//
// Three allocation-free kernels, each limited by a different resource,
// run on every core at once for d each:
//
//	compute   60 000 xorshift-indexed increments in a 256 KB table, then
//	          a sort of a fixed 20 000-element array (core clock, L2)
//	chase     20 000 dependent loads through a random cycle over 32 MB
//	          (cache and memory latency)
//	copy      8 MB copied to another 8 MB (memory bandwidth)
//
// A kernel's reading is its median repetition time over its reference;
// the sentinel is the geometric mean of the three, so 1.0 is the quiet
// reference box. The large arrays live outside the Go heap (mmap): on
// the heap they would raise the collector's target and with it the speed
// of the program under test.
type sentinel struct {
	d     time.Duration
	chase []uint32 // one random cycle, shared: the kernels only read it
	cores []sentinelCore
	all   []float64 // every core's repetition times of one kernel, reused
}

type sentinelCore struct {
	table    []uint32
	template []int
	work     []int
	src, dst []byte
	pos      uint32
	reps     []float64
}

// Median repetition times in ms on the quiet 2-vCPU reference box,
// frozen so that calibrated values stay comparable across commits.
var kernelRef = [3]float64{1.56, 2.45, 0.50}

const (
	chaseBytes = 32 << 20
	copyBytes  = 8 << 20
	// minReps is how many repetitions every core completes however long
	// that takes. Without it a stall of the whole VM inside a kernel's
	// 60 ms leaves one or two repetitions, their median reads 100 times
	// too slow, and the rounds beside it are calibrated three times too
	// fast (seen once in 160 runs).
	minReps = 5
)

func offHeap(n int) ([]byte, error) {
	return syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
}

// newSentinel returns nil, the sentinel that always reads 1, when d is 0.
func newSentinel(d time.Duration) (*sentinel, error) {
	if d == 0 {
		return nil, nil
	}
	s := &sentinel{d: d, cores: make([]sentinelCore, runtime.GOMAXPROCS(0))}
	b, err := offHeap(chaseBytes)
	if err != nil {
		return nil, err
	}
	s.chase = unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), chaseBytes/4)
	// Sattolo's shuffle makes the permutation one cycle, so a walk
	// visits all of it before repeating.
	x := uint64(88172645463325252)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := range s.chase {
		s.chase[i] = uint32(i)
	}
	for i := len(s.chase) - 1; i > 0; i-- {
		j := next() % uint64(i)
		s.chase[i], s.chase[j] = s.chase[j], s.chase[i]
	}
	for c := range s.cores {
		k := &s.cores[c]
		k.table = make([]uint32, 64<<10)
		k.template = make([]int, 20000)
		k.work = make([]int, len(k.template))
		k.reps = make([]float64, 0, 4096)
		k.pos = uint32(c * len(s.chase) / len(s.cores))
		for i := range k.template {
			k.template[i] = int(next() >> 1)
		}
		if k.src, err = offHeap(copyBytes); err != nil {
			return nil, err
		}
		if k.dst, err = offHeap(copyBytes); err != nil {
			return nil, err
		}
		for i := range k.src {
			k.src[i] = byte(i)
		}
	}
	return s, nil
}

func (s *sentinel) kernel(which int, k *sentinelCore) {
	switch which {
	case 0:
		x := uint64(2463534242)
		for i := 0; i < 60000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			k.table[x&uint64(len(k.table)-1)]++
		}
		copy(k.work, k.template)
		sort.Ints(k.work)
	case 1:
		p := k.pos
		for i := 0; i < 20000; i++ {
			p = s.chase[p]
		}
		k.pos = p
	case 2:
		copy(k.dst, k.src)
	}
}

// measure returns the machine's slowness now; see the type's comment.
func (s *sentinel) measure() float64 {
	if s == nil {
		return 1
	}
	runtime.GC() // no collector work while the kernels run, and every round starts from the same collector state
	logSum := 0.0
	all := s.all[:0]
	for which := range kernelRef {
		deadline := time.Now().Add(s.d)
		var wg sync.WaitGroup
		for c := range s.cores {
			wg.Add(1)
			go func(k *sentinelCore) {
				defer wg.Done()
				k.reps = k.reps[:0]
				for (time.Now().Before(deadline) || len(k.reps) < minReps) && len(k.reps) < cap(k.reps) {
					t0 := time.Now()
					s.kernel(which, k)
					k.reps = append(k.reps, ms(time.Since(t0)))
				}
			}(&s.cores[c])
		}
		wg.Wait()
		all = all[:0]
		for c := range s.cores {
			all = append(all, s.cores[c].reps...)
		}
		logSum += math.Log(median(all) / kernelRef[which])
	}
	s.all = all
	return math.Exp(logSum / float64(len(kernelRef)))
}
