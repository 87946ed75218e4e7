package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"slices"
	"strconv"
	"time"

	"zht/internal/core"
	"zht/internal/memcached"
	"zht/internal/tenant"
	"zht/internal/wire"
)

const (
	fdTenant  = "fd"
	fdKeys    = 8192 // preloaded keys per connection
	fdMinVal  = 64
	fdMaxVal  = 4096
	fdExptime = 86400 // seconds; far beyond the run, so no pair expires
	fdWarmOps = 1000  // closed-loop commands per connection before the window
)

// fdWorkload drives the memcached gateway over its text protocol, on
// a tenant-scoped client with admission installed. Each connection is
// a closed loop: a fixed-rate open loop measured how fast the
// machine's idle CPUs woke up more than the gateway, and its medians
// moved by 20% to 3x between runs as other tenants of the host came
// and went (see perfbench/README.md).
type fdWorkload struct {
	env   *benchEnv
	cfg   core.Config
	dep   *deployment
	gw    *memcached.Gateway
	serve chan error
	conns []*fdConn
}

// fdConn is one memcached connection; it owns its keys and keeps one
// command in flight.
type fdConn struct {
	id    int
	w     *fdWorkload
	c     net.Conn
	r     *bufio.Reader
	bw    *bufio.Writer
	keys  []string // user keys, before the tenant namespace
	orc   *oracle
	rng   *rand.Rand
	zipf  *rand.Zipf
	ver   uint32
	val   []byte
	line  []byte // command scratch
	reply []byte
	want  []byte
}

func newFrontDoor(env *benchEnv) *fdWorkload {
	w := &fdWorkload{env: env, cfg: core.Config{NumPartitions: partitions, Metrics: env.reg}}
	for c := 0; c < clients; c++ {
		fc := &fdConn{
			id: c, w: w, orc: newOracle(fdKeys),
			rng: rand.New(rand.NewSource(env.seed*1000 + 500 + int64(c))),
			val: make([]byte, fdMaxVal),
		}
		fc.zipf = rand.NewZipf(fc.rng, 1.1, 1, fdKeys-1)
		fc.keys = make([]string, fdKeys)
		for i := range fc.keys {
			fc.keys[i] = benchKey(c, i)
		}
		w.conns = append(w.conns, fc)
	}
	return w
}

// valueShape derives the length and memcached flags of a value from
// (client, key, version), so a reply can be rebuilt byte for byte.
func valueShape(client, key int, ver uint32) (n int, flags uint32) {
	h := splitmix(valueSeed(client, key, ver) ^ 0x5bd1e995)
	return fdMinVal + int(h%(fdMaxVal-fdMinVal+1)), uint32(h >> 32)
}

func (w *fdWorkload) setup() error {
	treg := tenant.NewRegistry()
	// A quota far above the offered rate: admission runs on every
	// command but never sheds.
	if err := treg.Register(tenant.Tenant{Name: fdTenant, Rate: 1e7, Burst: 1e7}); err != nil {
		return err
	}
	var adm core.AdmissionHook = tenant.NewAdmission(treg, tenant.AdmissionOptions{Metrics: w.env.reg})
	if w.env.tr != nil {
		adm = &tracedAdmission{inner: adm, tr: w.env.tr}
	}
	w.cfg.Admission = adm
	var err error
	if w.dep, err = boot(w.cfg, w.env.tr, w.env.cliReg); err != nil {
		return err
	}
	var store memcached.Store = w.dep.client
	if w.env.tr != nil {
		store = &tracedStore{inner: store, tr: w.env.tr}
	}
	w.gw = memcached.New(store, memcached.Options{Tenant: fdTenant, Metrics: w.env.reg})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.serve = make(chan error, 1)
	go func() { w.serve <- w.gw.Serve(ln) }()
	for _, fc := range w.conns {
		if err := fc.preload(); err != nil {
			return err
		}
		if fc.c, err = net.Dial("tcp", ln.Addr().String()); err != nil {
			return err
		}
		fc.r, fc.bw = bufio.NewReader(fc.c), bufio.NewWriter(fc.c)
	}
	return forEachActor(len(w.conns), func(c int) error {
		warm := warmTally()
		for i := 0; i < fdWarmOps; i++ {
			if _, _, err := w.conns[c].step(warm); err != nil {
				return err
			}
		}
		return nil
	})
}

// preload stores every key through the client, wrapped in the same
// tenant envelope the gateway writes.
func (fc *fdConn) preload() error {
	expiry := time.Now().Add(fdExptime * time.Second)
	ops := make([]core.BatchOp, 0, batchSize)
	flush := func() error {
		res, err := fc.w.dep.client.Batch(ops)
		if err != nil {
			return fmt.Errorf("preload: %w", err)
		}
		for i, r := range res {
			if r.Err != nil {
				return fmt.Errorf("preload %q: %w", ops[i].Key, r.Err)
			}
		}
		ops = ops[:0]
		return nil
	}
	fc.ver = 1
	for k, key := range fc.keys {
		n, flags := valueShape(fc.id, k, 1)
		v := make([]byte, n)
		fillValue(v, fc.id, k, 1)
		ops = append(ops, core.BatchOp{Op: wire.OpInsert, Key: tenant.Prefix(fdTenant, key), Value: tenant.Wrap(v, flags, expiry)})
		fc.orc.acked(k, 1)
		if len(ops) == batchSize {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	if len(ops) > 0 {
		return flush()
	}
	return nil
}

func (w *fdWorkload) run(start, deadline time.Time) ([]*tally, error) {
	ts := make([]*tally, len(w.conns))
	err := forEachActor(len(w.conns), func(c int) error {
		t := newTally(start, deadline.Sub(start)/nSlices, nSlices)
		ts[c] = t
		for time.Now().Before(deadline) {
			begin := time.Now()
			cl, ok, err := w.conns[c].step(t)
			if err != nil {
				return err
			}
			if end := time.Now(); ok {
				t.record(cl, end.Sub(begin), end, 1)
			}
		}
		return nil
	})
	return ts, err
}

// step issues one command of the mix — 80% get, 15% set with an
// exptime, 5% delete — over Zipf-chosen keys and checks the reply
// byte for byte. It returns the command's class and whether it
// completed.
func (fc *fdConn) step(t *tally) (class, bool, error) {
	k := int(fc.zipf.Uint64() * 2654435761 % fdKeys)
	key := fc.keys[k]
	r := fc.rng.Float64()
	tr := fc.w.env.tr
	t.attempted++
	switch {
	case r < 0.80:
		id := tr.beginOp(fc.id, wire.OpLookup, false)
		fc.send("get", key)
		got, ok, err := fc.readGet(key, k)
		tr.endOp(fc.id, id, !ok)
		if err != nil || !ok {
			t.failed++
			return classRead, false, err
		}
		t.reads++
		if fc.orc.read(k, got) != readOK {
			return classRead, false, fmt.Errorf("get %s returned version %d, expected one of %v", key, got, fc.orc.expected(k))
		}
		return classRead, true, nil
	case r < 0.95:
		fc.ver++
		n, flags := valueShape(fc.id, k, fc.ver)
		fillValue(fc.val[:n], fc.id, k, fc.ver)
		id := tr.beginOp(fc.id, wire.OpInsert, false)
		fc.send("set", key, uint64(flags), fdExptime, uint64(n))
		fc.bw.Write(fc.val[:n])
		fc.bw.WriteString("\r\n")
		line, err := fc.roundTrip()
		ok := err == nil && string(line) == "STORED\r\n"
		tr.endOp(fc.id, id, !ok)
		if err != nil {
			return classWrite, false, err
		}
		if !ok {
			if !isServerError(line) {
				return classWrite, false, fmt.Errorf("set %s: unexpected reply %q", key, line)
			}
			t.failed++
			fc.orc.refused(k, fc.ver)
			return classWrite, false, nil
		}
		t.userBytes += int64(len(key) + n)
		fc.orc.acked(k, fc.ver)
		return classWrite, true, nil
	default:
		id := tr.beginOp(fc.id, wire.OpRemove, false)
		fc.send("delete", key)
		line, err := fc.roundTrip()
		deleted := err == nil && string(line) == "DELETED\r\n"
		ok := deleted || (err == nil && string(line) == "NOT_FOUND\r\n")
		tr.endOp(fc.id, id, !ok)
		if err != nil {
			return classRemove, false, err
		}
		if !ok {
			if !isServerError(line) {
				return classRemove, false, fmt.Errorf("delete %s: unexpected reply %q", key, line)
			}
			t.failed++
			fc.orc.refused(k, absent)
			return classRemove, false, nil
		}
		if err := fc.orc.removed(k, deleted); err != nil {
			return classRemove, false, fmt.Errorf("delete %s: %w", key, err)
		}
		return classRemove, true, nil
	}
}

// send buffers one command line: the command, the key and any numeric
// arguments, space separated. It builds the line in a reused buffer so
// the generator adds no garbage of its own to the process it measures.
func (fc *fdConn) send(cmd, key string, args ...uint64) {
	b := append(fc.line[:0], cmd...)
	b = append(b, ' ')
	b = append(b, key...)
	for _, a := range args {
		b = append(b, ' ')
		b = strconv.AppendUint(b, a, 10)
	}
	fc.line = append(b, "\r\n"...)
	fc.bw.Write(fc.line)
}

func isServerError(line []byte) bool { return bytes.HasPrefix(line, []byte("SERVER_ERROR")) }

// roundTrip flushes the pending command and reads one reply line,
// terminator included. The line is valid until the next read.
func (fc *fdConn) roundTrip() ([]byte, error) {
	if err := fc.bw.Flush(); err != nil {
		return nil, err
	}
	return fc.r.ReadSlice('\n')
}

// readGet flushes a get and reads its reply. A hit must equal, byte
// for byte, the reply for the version its data names: the VALUE line
// with that version's flags and length, the data, and END. It returns
// the version read (absent for a miss) and false for a SERVER_ERROR
// reply.
func (fc *fdConn) readGet(key string, k int) (uint32, bool, error) {
	line, err := fc.roundTrip()
	if err != nil {
		return 0, false, err
	}
	if string(line) == "END\r\n" {
		return absent, true, nil
	}
	if isServerError(line) {
		return 0, false, nil
	}
	// The data length is the VALUE line's last field.
	sp := bytes.LastIndexByte(line, ' ')
	n, err := strconv.Atoi(string(bytes.TrimRight(line[sp+1:], "\r\n")))
	if !bytes.HasPrefix(line, []byte("VALUE ")) || sp < 0 || err != nil || n < valHeader || n > fdMaxVal {
		return 0, false, fmt.Errorf("get %s: unexpected reply %q", key, line)
	}
	fc.reply = append(fc.reply[:0], line...)
	head := len(fc.reply)
	fc.reply = slices.Grow(fc.reply, n+len("\r\nEND\r\n"))[:head+n+len("\r\nEND\r\n")]
	if _, err := io.ReadFull(fc.r, fc.reply[head:]); err != nil {
		return 0, false, err
	}
	data := fc.reply[head : head+n]
	ver, err := decodeVersion(data, fc.id, k)
	if err != nil {
		return 0, false, fmt.Errorf("get %s: %w", key, err)
	}
	wn, flags := valueShape(fc.id, k, ver)
	w := append(fc.want[:0], "VALUE "...)
	w = append(w, key...)
	w = append(w, ' ')
	w = strconv.AppendUint(w, uint64(flags), 10)
	w = append(w, ' ')
	w = strconv.AppendInt(w, int64(wn), 10)
	w = append(w, "\r\n"...)
	w = append(w, data...)
	fc.want = append(w, "\r\nEND\r\n"...)
	if !bytes.Equal(fc.reply, fc.want) {
		return 0, false, fmt.Errorf("get %s: reply %q differs from the reply for version %d", key, fc.reply[:head], ver)
	}
	return ver, true, nil
}

func (w *fdWorkload) finish(*phaseResult) error { return w.close() }

func (w *fdWorkload) close() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	for _, fc := range w.conns {
		if fc.c != nil {
			keep(fc.c.Close())
		}
	}
	w.conns = nil
	if w.gw != nil {
		keep(w.gw.Close())
		<-w.serve
		w.gw = nil
	}
	if w.dep != nil {
		keep(w.dep.close())
		w.dep = nil
	}
	return first
}
