package server

// InFlight returns the number of requests executing across all
// connections: the count MaxTotalInFlight caps.
func (s *Server) InFlight() int64 { return s.inflight.Load() }
