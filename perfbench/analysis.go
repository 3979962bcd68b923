package main

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"thermalherd/internal/journal"
)

// replayEventJobs is how many executed jobs' journal events the journal
// and replication replays re-append (three events each).
const replayEventJobs = 100

// tracedRun measures the workload twice for half the run each — first
// untraced, then with spans — replays the traced half's first distinct
// simulations through the layers, and reports the per-layer metrics.
func (b *bench) tracedRun() (report, error) {
	half := b.dur / 2
	u, err := b.measure("untraced", half, 1, nil)
	if err != nil {
		return report{}, err
	}
	rec := &recorder{}
	t, err := b.measure("traced", half, 1, rec)
	if err != nil {
		return report{}, err
	}
	// Replay as many simulations at once as the workload runs — nproc in
	// the saturated closed loops, one in the lightly loaded open loop — so
	// per-instruction times compare with the exec they are set against.
	workers := runtime.NumCPU()
	if b.w.Open {
		workers = 1
	}
	rp, err := replayLayers(b.jobs, b.w.ReplayCap, workers)
	if err != nil {
		return report{}, err
	}
	a := newAttribution(b, t, rec.all(), rp)
	m := a.layerMetrics()

	events := a.replayEvents()
	jus, err := replayJournal(filepath.Join(b.dir, "journal-replay"), events)
	if err != nil {
		return report{}, err
	}
	rus, err := replayReplication(filepath.Join(b.dir, "repl-replay"), events)
	if err != nil {
		return report{}, err
	}
	hop, err := gatewayOverhead(300)
	if err != nil {
		return report{}, err
	}
	m["journal.append_us"] = metric{quantile(jus, 0.5), "us"}
	m["replication.ack_us"] = metric{quantile(rus, 0.5), "us"}
	m["gateway.forward_overhead_us"] = metric{quantile(hop.ViaGW, 0.5) - quantile(hop.Direct, 0.5), "us"}
	if !b.w.Herd { // no gateway in the run: its self time on the no-op hop
		m["gateway.self_ms"] = metric{quantile(hop.SelfMs, 0.5), "ms"}
	}
	m["trace_overhead_frac"] = metric{a.p50/math.Max(p50(u.ok()), 1e-9) - 1, "ratio"}

	fmt.Fprintf(b.out, "\nper-layer metrics (traced half: %d jobs, %d replayed simulations, %d journal events)\n",
		len(t.outs), len(rp.Sims), len(events))
	for _, k := range sortedKeys(m) {
		fmt.Fprintf(b.out, "  %-30s %12.4f %s\n", k, m[k].Value, m[k].Unit)
	}
	a.printTable()
	return b.verdict(m, u, t), nil
}

func p50(outs []*Outcome) float64 {
	var lat []float64
	for _, o := range outs {
		lat = append(lat, ms(o.Latency()))
	}
	return quantile(lat, 0.5)
}

// jobParts is one job's latency split along its critical path, in ms.
type jobParts struct {
	o *Outcome
	// Client-side timeline: late (generator behind schedule), submit
	// round trip, queue wait, exec, and observe (exec end to the poll
	// that saw it). Intervals are clipped so they tile the latency.
	late, submit, queue, exec, observe float64
	// submit split: gateway self time, backend admission self time,
	// synchronous replication on the successor.
	gwSelf, admit, repl float64
	// Replayed phase times of the job's execution: cpu, power, thermal;
	// cpu is -1 when the job's simulation was not replayed.
	cpu, power, thermal float64
	// Unclipped server-side queue wait and exec.
	queueFull, execFull float64
}

type attribution struct {
	b     *bench
	run   *runResult
	ix    spanIndex
	rp    *replay
	parts []*jobParts
	p50   float64
}

func newAttribution(b *bench, run *runResult, spans []Span, rp *replay) *attribution {
	a := &attribution{b: b, run: run, ix: indexSpans(spans), rp: rp}
	ok := run.ok()
	a.p50 = p50(ok)
	for _, o := range ok {
		a.parts = append(a.parts, a.split(o))
	}
	return a
}

// localID splits a gateway id "<id>@<node>" into its backend parts; a
// lone daemon's ids are local to n0.
func localID(id string) (local, node string) {
	if i := strings.LastIndex(id, "@"); i >= 0 {
		return id[:i], id[i+1:]
	}
	return id, "n0"
}

func (a *attribution) split(o *Outcome) *jobParts {
	// Each instant of the latency goes to the deepest layer active then:
	// exec, else queue wait, else the submit round trip, else the
	// generator's lateness; what is left is observation delay.
	p := &jobParts{o: o, cpu: -1}
	p.late = ms(o.FirstSubmit.Sub(o.Due))
	submitFull := ms(o.SubmitEnd.Sub(o.FirstSubmit))
	p.submit = submitFull
	if sub, start, fin, ok := o.serverTimes(); ok && o.Executed() {
		p.queueFull, p.execFull = ms(start.Sub(sub)), ms(fin.Sub(start))
		p.queue = overlapMs(sub, start, o.Due, o.Observed)
		p.exec = overlapMs(start, fin, o.Due, o.Observed)
		p.submit -= overlapMs(o.FirstSubmit, o.SubmitEnd, sub, fin)
	}
	p.observe = ms(o.Latency()) - p.late - p.submit - p.queue - p.exec

	// Submit split, from the spans under the client's last submit.
	local, node := localID(o.ID)
	for _, cs := range a.ix[[3]string{"client", "submit", o.ID}] {
		var backends []Span
		if _, herd := a.ix[[3]string{"gw", "submit", o.ID}]; herd {
			for _, gs := range a.ix.children(cs, "gw", o.ID) {
				kids := a.ix.children(gs, node, local)
				p.gwSelf += ms(selfTime(gs, kids))
				backends = append(backends, kids...)
			}
		} else {
			backends = a.ix.children(cs, node, local)
		}
		for _, bs := range backends {
			var repl []Span
			for _, rs := range a.ix[[3]string{a.successor(node), "replica", node}] {
				if within(rs, bs) {
					repl = append(repl, rs)
				}
			}
			self := selfTime(bs, repl)
			p.admit += ms(self)
			p.repl += ms(bs.Dur() - self)
		}
	}
	if submitFull > 0 { // keep the submit split inside its clipped share
		f := p.submit / submitFull
		p.gwSelf, p.admit, p.repl = p.gwSelf*f, p.admit*f, p.repl*f
	}

	if o.Executed() {
		spec := a.b.jobs[o.Job].Spec
		if sr := a.rp.Sims[simKeyOf(spec)]; sr != nil {
			p.cpu = ms(sr.New + sr.FF + sr.Cycle)
			if tr := a.rp.Therm[specKey(spec)]; tr != nil {
				p.power, p.thermal = ms(tr.Power), ms(tr.Solve)
			}
		}
	}
	return p
}

// overlapMs is the length of [a0,a1] ∩ [b0,b1] in ms.
func overlapMs(a0, a1, b0, b1 time.Time) float64 {
	if b0.After(a0) {
		a0 = b0
	}
	if b1.Before(a1) {
		a1 = b1
	}
	if !a1.After(a0) {
		return 0
	}
	return ms(a1.Sub(a0))
}

// successor is the backend a herd node replicates to: the one whose
// replica spans name it as origin.
func (a *attribution) successor(node string) string {
	for k := range a.ix {
		if k[1] == "replica" && k[2] == node {
			return k[0]
		}
	}
	return ""
}

// layerMetrics derives every per-layer metric measured from the traced
// half and the replay (the journal, replication and gateway replays are
// added by the caller).
func (a *attribution) layerMetrics() map[string]metric {
	rp, run := a.rp, a.run
	m := map[string]metric{}

	var news, powers, planar, stacked []float64
	var ffNs, cycNs float64
	iters := 0
	for _, s := range rp.Sims {
		news = append(news, float64(s.New.Nanoseconds())/1e3)
		ffNs += float64(s.FF.Nanoseconds())
		cycNs += float64(s.Cycle.Nanoseconds())
	}
	for _, t := range rp.Therm {
		powers = append(powers, float64(t.Power.Nanoseconds())/1e3)
		if t.Stacked {
			stacked = append(stacked, ms(t.Solve))
		} else {
			planar = append(planar, ms(t.Solve))
		}
		iters += t.Iters
	}
	insts := float64(rp.FFInsts + rp.CycleInsts)
	m["cpu.new_us"] = metric{quantile(news, 0.5), "us"}
	m["cpu.ff_ns_per_inst"] = metric{ffNs / math.Max(1, float64(rp.FFInsts)), "ns"}
	m["cpu.cycle_ns_per_inst"] = metric{cycNs / math.Max(1, float64(rp.CycleInsts)), "ns"}
	m["cpu.allocs_per_inst"] = metric{float64(rp.Mallocs) / math.Max(1, insts), "count"}
	m["cpu.bytes_per_inst"] = metric{float64(rp.Bytes) / math.Max(1, insts), "B"}
	m["power.compute_us"] = metric{quantile(powers, 0.5), "us"}
	m["thermal.solve_ms.planar"] = metric{quantile(planar, 0.5), "ms"}
	m["thermal.solve_ms.stacked"] = metric{quantile(stacked, 0.5), "ms"}
	m["thermal.iters"] = metric{float64(iters), "count"}

	var shared, queue, exec, resid, clientResid, submit, late, lat []float64
	var polls, retries, hits float64
	var cpuSum, thermSum, execSum float64
	var cpuTherm []float64
	for _, p := range a.parts {
		o := p.o
		polls += float64(o.Polls)
		retries += float64(o.Retries)
		late = append(late, p.late)
		submit = append(submit, ms(o.SubmitEnd.Sub(o.FirstSubmit)))
		clientResid = append(clientResid, p.observe)
		lat = append(lat, ms(o.Latency()))
		if o.Status.FromCache {
			hits++
		}
		if !o.Executed() {
			continue
		}
		queue = append(queue, p.queueFull)
		exec = append(exec, p.execFull)
		if a.b.jobs[o.Job].Repeat >= 0 {
			shared = append(shared, p.execFull)
		}
		if p.cpu >= 0 {
			resid = append(resid, p.execFull-p.cpu-p.power-p.thermal)
			cpuSum += p.cpu
			thermSum += p.thermal
			execSum += p.execFull
			cpuTherm = append(cpuTherm, p.cpu+p.thermal)
		}
	}
	n := math.Max(1, float64(len(a.parts)))
	if len(shared) == 0 { // nothing repeats a simulation: the unshared exec
		shared = exec
	}
	m["experiments.shared_exec_ms"] = metric{quantile(shared, 0.5), "ms"}
	m["server.queue_wait_ms"] = metric{quantile(queue, 0.5), "ms"}
	m["server.exec_ms"] = metric{quantile(exec, 0.5), "ms"}
	m["server.exec_residual_ms"] = metric{quantile(resid, 0.5), "ms"}
	m["server.cache_hit_frac"] = metric{hits / n, "ratio"}
	m["client.submit_ms"] = metric{quantile(submit, 0.5), "ms"}
	m["client.polls_per_job"] = metric{polls / n, "count"}
	m["client.retries_per_job"] = metric{retries / n, "count"}
	m["client.late_ms"] = metric{mean(late), "ms"}
	m["client.residual_ms"] = metric{quantile(clientResid, 0.5), "ms"}
	m["client.tail_ms"] = metric{quantile(lat, a.b.w.TailQ), "ms"}
	m["share.cpu_of_exec"] = metric{cpuSum / math.Max(1e-9, execSum), "ratio"}
	m["share.thermal_of_exec"] = metric{thermSum / math.Max(1e-9, execSum), "ratio"}
	m["share.cpu_thermal_of_p50"] = metric{quantile(cpuTherm, 0.5) / math.Max(1e-9, a.p50), "ratio"}

	// Backend handler spans: admission and status polls, and the body
	// encode+write tail of every job-API reply.
	var admits, pollsMs, encode, gwSelf []float64
	for k, spans := range a.ix {
		if k[0] == "client" || k[0] == "gw" {
			continue
		}
		for _, s := range spans {
			switch s.Op {
			case "submit":
				admits = append(admits, ms(s.Dur()))
			case "status":
				pollsMs = append(pollsMs, ms(s.Dur()))
			default:
				continue
			}
			encode = append(encode, float64(s.End.Sub(s.Header).Nanoseconds())/1e3)
		}
	}
	for _, p := range a.parts {
		if _, herd := a.ix[[3]string{"gw", "submit", p.o.ID}]; herd {
			gwSelf = append(gwSelf, p.gwSelf)
		}
	}
	m["server.admit_ms"] = metric{quantile(admits, 0.5), "ms"}
	m["server.poll_ms"] = metric{quantile(pollsMs, 0.5), "ms"}
	m["server.encode_us"] = metric{quantile(encode, 0.5), "us"}
	m["gateway.self_ms"] = metric{quantile(gwSelf, 0.5), "ms"}

	// Fleet counters over the measured jobs (the warm-up is subtracted).
	jobs := math.Max(1, float64(len(run.outs)))
	fired := run.delta("gateway.hedges_fired")
	m["journal.fsyncs_per_job"] = metric{run.delta("journal.fsyncs") / jobs, "count"}
	m["replication.streamed_per_job"] = metric{run.delta("repl.streamed") / jobs, "count"}
	m["gateway.hedge_rate"] = metric{fired / jobs, "ratio"}
	m["gateway.hedge_win_frac"] = metric{run.delta("gateway.hedges_won") / math.Max(1, fired), "ratio"}
	return m
}

// replayEvents rebuilds the journal events of the traced half's first
// executed jobs, at the sizes of their specs and results.
func (a *attribution) replayEvents() []journal.Event {
	var events []journal.Event
	n := 0
	for _, p := range a.parts {
		if !p.o.Executed() || n == replayEventJobs {
			continue
		}
		n++
		events = append(events, jobEvents(fmt.Sprintf("job-%06d", n), a.b.jobs[p.o.Job].Spec, p.o.ResultBytes)...)
	}
	if len(events) == 0 { // every job was a cache hit: replay one spec
		events = jobEvents("job-000001", a.b.jobs[0].Spec, 2)
	}
	return events
}

// printTable prints where the median job's time went: the mean split
// of the jobs whose latency lies between the 40th and 60th percentile,
// leaving out executed jobs whose simulation was not replayed.
func (a *attribution) printTable() {
	var lat []float64
	for _, p := range a.parts {
		lat = append(lat, ms(p.o.Latency()))
	}
	lo, hi := quantile(lat, 0.4), quantile(lat, 0.6)
	type row struct {
		name string
		v    float64
	}
	rows := []row{
		{"client: generator late", 0}, {"gateway self", 0}, {"server admit self", 0},
		{"replication ack", 0}, {"client+http submit rest", 0}, {"server queue wait", 0},
		{"cpu", 0}, {"power", 0}, {"thermal", 0}, {"server exec residual", 0},
		{"client observe (poll delay)", 0},
	}
	var band float64
	var total float64
	for _, p := range a.parts {
		l := ms(p.o.Latency())
		if l < lo || l > hi || p.o.Executed() && p.cpu < 0 { // exec split unknown
			continue
		}
		band++
		total += l
		cpu, power, therm := math.Max(p.cpu, 0), p.power, p.thermal
		if p.execFull > 0 { // scale the replayed phases to the clipped exec
			f := p.exec / p.execFull
			cpu, power, therm = cpu*f, power*f, therm*f
		}
		vals := []float64{
			p.late, p.gwSelf, p.admit, p.repl, p.submit - p.gwSelf - p.admit - p.repl, p.queue,
			cpu, power, therm, p.exec - cpu - power - therm, p.observe,
		}
		for i, v := range vals {
			rows[i].v += v
		}
	}
	if band == 0 {
		return
	}
	fmt.Fprintf(a.b.out, "\nwhere the time went (%s, mean of the %.0f replayed jobs between p40 and p60, %.3f ms):\n",
		a.b.w.Name, band, total/band)
	for _, r := range rows {
		fmt.Fprintf(a.b.out, "  %-28s %9.3f ms %6.1f%%\n", r.name, r.v/band, 100*r.v/total)
	}
}

// capacitySweep runs herd-durable's open loop at each rate for the run
// length and prints latency and lateness, to choose its fixed rate.
func (b *bench) capacitySweep(rates string) int {
	base := *workloadByName("herd-durable")
	fmt.Fprintf(b.out, "%8s %8s %10s %10s %10s %8s\n", "rate", "jobs", "p50_ms", "p99_ms", "late_ms", "failed")
	for _, f := range strings.Split(rates, ",") {
		rate, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil || rate <= 0 {
			fmt.Fprintf(b.out, "bad rate %q\n", f)
			return 2
		}
		w := base
		w.Rate = rate
		b.w = &w
		b.jobs = base.Gen(b.seed)
		for i := range b.jobs {
			b.jobs[i].Due = time.Duration(float64(i) / rate * float64(time.Second))
		}
		r, err := b.measure(fmt.Sprintf("sweep-%g", rate), b.dur, 1, nil)
		if err != nil {
			fmt.Fprintln(b.out, "sweep:", err)
			return 1
		}
		var lat, late []float64
		for _, o := range r.ok() {
			lat = append(lat, ms(o.Latency()))
			late = append(late, ms(o.FirstSubmit.Sub(o.Due)))

		}
		fmt.Fprintf(b.out, "%8g %8d %10.3f %10.3f %10.3f %8d\n", rate, len(r.outs),
			quantile(lat, 0.5), quantile(lat, 0.99), mean(late), len(r.failures()))
	}
	return 0
}
