package router

import (
	"context"
	"net/http"
	"time"

	"hydra/internal/platform"
	"hydra/internal/serve"
)

// The router answers hydra-serve's own JSON front-end (serve.FrontEnd),
// so a client cannot tell a router from a single engine except by what
// is the router's own, kept here:
//
//	GET  /healthz    per-shard health + generations
//	GET  /topk       merged ranked candidates; degraded responses carry
//	                 "degraded":true,"failed_shards":[...]
//
// and by the status of a failed query: a query error surfaces as 400
// (the shard's own message passes through), a shard down after failover
// is 502 for score/link (no honest partial answer) but still 200 +
// degraded flag for top-k.

// Handler returns the router's HTTP front-end. Every route runs under
// the deadline-budget middleware: a request carrying the
// serve.DeadlineHeader budget gets it installed on its context (the
// scatter's retries, backoffs and downstream hops all decrement against
// it), a request without one gets Options.DefaultBudget when set, and a
// request whose budget is already spent is refused with 504.
func (r *Router) Handler() http.Handler {
	return r.budgetMiddleware(serve.FrontEnd(answerer{r}))
}

// budgetMiddleware installs the request's deadline budget — from the
// header, or Options.DefaultBudget — as a context value (see budget.go
// for why a value, not a context deadline).
func (r *Router) budgetMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		t, ok, err := serve.ParseDeadline(req.Header)
		if err != nil {
			serve.HTTPError(w, http.StatusBadRequest, err)
			return
		}
		if !ok {
			if d := r.opts.DefaultBudget; d > 0 {
				t = time.Now().Add(d)
			} else {
				next.ServeHTTP(w, req)
				return
			}
		}
		if !time.Now().Before(t) {
			serve.HTTPError(w, http.StatusGatewayTimeout, serve.ErrBudgetSpent)
			return
		}
		next.ServeHTTP(w, req.WithContext(WithBudget(req.Context(), t)))
	})
}

// answerer is the router as the front-end's serve.Answerer; ScoreBatch
// is the router's own.
type answerer struct{ *Router }

func (an answerer) ErrorStatus(err error) int {
	if IsQueryError(err) {
		return http.StatusBadRequest
	}
	return http.StatusBadGateway
}

func (an answerer) Healthz(ctx context.Context) any {
	statuses := an.Status(ctx)
	ok := true
	for _, st := range statuses {
		if !st.Healthy {
			ok = false
		}
	}
	return map[string]any{"ok": ok, "pairs": an.Pairs(), "shards": statuses}
}

func (an answerer) TopK(ctx context.Context, pa platform.ID, a int, pb platform.ID, k int) (any, error) {
	return an.Router.TopK(ctx, pa, a, pb, k)
}
