package serve

// SetCompileBarrier installs a test-only hook that the singleflight
// leader runs immediately before compiling — tests use it to hold the
// leader in the compile window so concurrent first touches must coalesce.
func (s *Service) SetCompileBarrier(f func()) { s.compileHook = f }

// UpdateGolden exposes the -update flag to the external test package.
var UpdateGolden = updateGolden
