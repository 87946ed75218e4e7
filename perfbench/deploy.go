package main

import (
	"fmt"

	"zht/internal/core"
	"zht/internal/metrics"
	"zht/internal/transport"
)

// instances is the deployment size: the fewest instances that can
// hold three copies of a partition.
const instances = 3

// deployment is a ZHT deployment of `instances` instances in this
// process, serving over real loopback TCP, plus the one multiplexed
// TCP client every benchmark client shares.
type deployment struct {
	cfg    core.Config
	d      *core.Deployment
	lns    []transport.Listener
	inst   *transport.TCPClient // inter-instance caller
	cli    *transport.TCPClient // client caller
	client *core.Client
}

// boot starts a deployment. With tr set, the client caller, the
// inter-instance caller and every instance handler are wrapped in
// tracing; cliReg (may be nil) receives the client caller's transport
// counters, cfg.Metrics everything else.
func boot(cfg core.Config, tr *tracer, cliReg *metrics.Registry) (*deployment, error) {
	dp := &deployment{cfg: cfg}
	dp.inst = transport.NewTCPClient(transport.TCPClientOptions{ConnCache: true, Metrics: cfg.Metrics})
	var instCaller transport.Caller = dp.inst
	if tr != nil {
		instCaller = &tracedCaller{inner: dp.inst, tr: tr, layer: layerInstCall}
	}
	eps := make([]core.Endpoint, instances)
	switches := make([]*core.HandlerSwitch, instances)
	for i := range eps {
		hs := &core.HandlerSwitch{}
		ln, err := transport.ListenTCP("127.0.0.1:0", hs.Handle, transport.EventDriven, transport.WithServerMetrics(cfg.Metrics))
		if err != nil {
			dp.close()
			return nil, fmt.Errorf("listen: %w", err)
		}
		dp.lns = append(dp.lns, ln)
		switches[i] = hs
		eps[i] = core.Endpoint{Addr: ln.Addr(), Node: fmt.Sprintf("node-%d", i)}
	}
	d, err := core.Bootstrap(cfg, eps, func(addr string, h transport.Handler) (transport.Listener, error) {
		for i, ep := range eps {
			if ep.Addr == addr {
				if tr != nil {
					h = tr.tracedHandler(addr, h)
				}
				switches[i].Set(h)
				return dp.lns[i], nil
			}
		}
		return nil, fmt.Errorf("no listener bound at %s", addr)
	}, instCaller)
	if err != nil {
		dp.close()
		return nil, fmt.Errorf("bootstrap: %w", err)
	}
	dp.d = d
	dp.cli = transport.NewTCPClient(transport.TCPClientOptions{ConnCache: true, Metrics: cliReg})
	var cliCaller transport.Caller = dp.cli
	if tr != nil {
		cliCaller = &tracedCaller{inner: dp.cli, tr: tr, layer: layerClientCall}
	}
	if dp.client, err = core.NewClient(cfg, d.Instance(0).Table(), cliCaller); err != nil {
		dp.close()
		return nil, fmt.Errorf("client: %w", err)
	}
	return dp, nil
}

// close stops the deployment the way core.Deployment.Close does — every
// listener first, so no instance is reachable once any has stopped,
// then the instances, flushing their stores — and then both callers.
func (dp *deployment) close() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if dp.d != nil {
		keep(dp.d.Close())
	} else {
		for _, ln := range dp.lns {
			keep(ln.Close())
		}
	}
	if dp.cli != nil {
		keep(dp.cli.Close())
	}
	keep(dp.inst.Close())
	return first
}
